struct S {
  int key;
  struct S* next;
};

int size(struct S* l) {
  if (l == NULL) return 0;
  return 1 + size(l->next);
}

int min(struct S* l) {
  return l->key;
}

int member(struct S* l, int k) {
  while (l != NULL) {
    if (l->key == k) return 1;
    l = l->next;
  }
  return 0;
}

struct S* insert(struct S* l, int k) {
  struct S* n;
  struct S* c;

  n = (struct S*) malloc(sizeof(struct S));
  n->key = k;
  if (l == NULL || k <= l->key) {
    n->next = l;
    return n;
  }
  c = l;
  while (c->next != NULL && c->next->key < k)
    c = c->next;
  n->next = c->next;
  c->next = n;
  return l;
}

struct S* remove(struct S* l, int k) {
  struct S* c;

  if (l == NULL) return NULL;
  if (l->key == k) return l->next;
  c = l;
  while (c->next != NULL && c->next->key < k)
    c = c->next;
  if (c->next != NULL && c->next->key == k)
    c->next = c->next->next;
  return l;
}
