/* Counters behind GNU ld's --wrap: every call to the write barrier or
   to a polymorphic comparison from another object file (compiled OCaml
   code, and runtime helpers such as caml_array_blit) lands here first,
   is counted, and goes on to the runtime's own function. */

#include <caml/mlvalues.h>

static long n_modify, n_compare;

void __real_caml_modify(volatile value *fp, value v);
void __wrap_caml_modify(volatile value *fp, value v)
{
  __atomic_fetch_add(&n_modify, 1, __ATOMIC_RELAXED);
  __real_caml_modify(fp, v);
}

#define COUNTED(f)                                                   \
  value __real_##f(value a, value b);                                \
  value __wrap_##f(value a, value b)                                 \
  {                                                                  \
    __atomic_fetch_add(&n_compare, 1, __ATOMIC_RELAXED);             \
    return __real_##f(a, b);                                         \
  }

COUNTED(caml_equal)
COUNTED(caml_notequal)
COUNTED(caml_compare)
COUNTED(caml_lessthan)
COUNTED(caml_lessequal)
COUNTED(caml_greaterthan)
COUNTED(caml_greaterequal)

value plexus_modify_calls(value unit)
{
  (void)unit;
  return Val_long(__atomic_load_n(&n_modify, __ATOMIC_RELAXED));
}

value plexus_compare_calls(value unit)
{
  (void)unit;
  return Val_long(__atomic_load_n(&n_compare, __ATOMIC_RELAXED));
}
