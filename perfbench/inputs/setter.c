struct Box {
  int val;
  struct Box* peer;
};

void set_val(struct Box* b, int v) {
  b->val = v;
}
