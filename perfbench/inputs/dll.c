#include <stdlib.h>

struct List {
  void* data;
  struct List* next;
  struct List* prev;
};

struct List* append(struct List* list, void* d) {
  struct List* new_node;
  struct List* final;

  new_node = (struct List*) malloc(sizeof(struct List));
  new_node->data = d;
  new_node->next = NULL;

  if (list != NULL) {
     final = list;
     if (final != NULL) {
        while (final->next != NULL)
          final = final->next;
     }
     final->next = new_node;
     new_node->prev = final;

     return list;
  }
  else {
     new_node->prev = NULL;
     list = new_node;
     return list;
  }
}

int length(struct List* list) {
  int len;

  len = 0;
  while (list != NULL) {
    len = len + 1;
    list = list->next;
  }
  return len;
}

struct List* reverse(struct List* list) {
  struct List* final;

  final = NULL;
  while (list != NULL) {
    final = list;
    list = final->next;
    final->next = final->prev;
    final->prev = list;
  }
  return final;
}

void* head(struct List* list) {
  if (list != NULL) {
      while (list->prev != NULL)
          list = list->prev;
  }
  return list->data;
}

struct List* last(struct List* list) {
  struct List* reversed;

  reversed = reverse(list);
  return head(reversed);
}

int find(struct List* list, void* d) {
  int found;

  found = 0;
  while (list != NULL && !(found)) {
      if (list->data == d)
        found = 1;
      else
        list = list->next;
  }
  return found;
}

struct List* init(struct List* list) {
  struct List* aux;

  if (list != NULL) {
     if (list->next != NULL) {
      aux = list->next;
      while (aux->next->next != NULL)
          aux = aux->next;
      aux->next = NULL;
     }
     else
      list = NULL;
  }
  return list;
}
