// Probes for shapes the corpus lacks. CI runs each function through the
// CLI under two hash seeds and requires equal output; see the step
// "Output independent of the hash seed" in .github/workflows/tests.yml
// for the loops and the exit codes it requires.
struct N { int v; struct N* next; };
// symbolic arithmetic: + and - name fresh ints, and the calls share local
// names with the caller; each level of sum adds integer atoms to the path
// condition, which the step also runs at --unroll 8
int getv(struct N* a) { return a->v; }
int sum(struct N* n) { int t; if (n == NULL) return 0; t = n->v; return t + sum(n->next); }
int diff(struct N* a, struct N* b) { int t; t = a->v - b->v; return t - sum(a); }
int upto(int k) { int c; c = 0; while (c < k) c = c + 1; return c; }
int poke(struct N* m) { m->v = 1; return 0; }
// walks whose body discovers the node the next guard tests: itself, in a
// callee with its own loop, or in a callee that writes it
int walk(struct N* n) { while (n != NULL) { n->next->v = 1; n = n->next; } return 0; }
int walkup(struct N* n) { while (n != NULL) { upto(n->next->v); n = n->next; } return 0; }
int walkpoke(struct N* n) { while (n != NULL) { poke(n->next); n = n->next; } return 0; }
// malloc'd storage compared with input pointers
int mnext(struct N* a) { struct N* m; m = (struct N*) malloc(sizeof(struct N)); m->v = 0; if (a->next == m) return 1; return 0; }
int margs(struct N* a, struct N* b) { struct N* m; m = (struct N*) malloc(sizeof(struct N)); m->next = NULL; if (b == m) return 1; if (a == m) return 2; return 0; }
// loops whose guard records an atom after a looping callee (clob) or only
// an arithmetic atom (ag)
int clob(int x) { while (x > 0 && upto(2) > 0) { x = x - 1; } return x; }
int ag(int x) { while (x + 1 > x) { x = x - 1; } return x; }
// a modifier that moves its pointer argument before it writes through it
int adv(struct N* a, struct N* b) { b = b->next; b->v = 3; return 0; }
// a loop nested in a loop of the same function
int sumin(struct N* n) { int t; int c; t = 0; while (n != NULL) { c = 0; while (c < n->v) c = c + 1; t = t + c; n = n->next; } return t; }
// an address comparison before a lazy dereference of the same pointer
// (cmpthen), also with the compared pointer already a heap key (cmpheap),
// where the separate alias world records the comparison's atom again,
// which the dump shows under <cond> only
int cmpthen(struct N* a, struct N* b) { if (a->next == b) return b->v; return a->next->v; }
int cmpheap(struct N* a, struct N* b) { int t; t = b->v; if (a->next == b) return 1; return a->next->v; }
