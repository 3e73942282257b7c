/* Lazily-zeroed int arrays for Pacor_route.Workspace.

   [pacor_zeroed_ints n] maps n native ints as a private anonymous
   mapping and wraps it as an (int, int_elt, c_layout) Bigarray.Array1.t.
   The kernel hands out such pages zero-filled on first touch, so the
   array reads zero everywhere and only the pages a caller writes (or
   reads) become resident. The custom block declares the mapped size to
   the collector (caml_alloc_custom_mem), which therefore finalises a
   dropped array about as promptly as a malloc'ed Bigarray of that size,
   and the finaliser unmaps it. Returns [Some a], or [None] when n <= 0
   or no mapping can be made; the OCaml side then falls back to an
   ordinary Bigarray filled with zeros.

   The identifier and the serialisers are the standard Bigarray's, so a
   marshalled array comes back as an ordinary malloc'ed one; the
   finaliser mirrors the one the unix library uses for mapped files: a
   subarray copies the original's operations and shares the mapping
   through the runtime's proxy, and the last of them to be finalised
   unmaps it. */

#define CAML_NAME_SPACE
/* For the standard Bigarray's compare, hash and serialisers. */
#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/custom.h>
#include <caml/bigarray.h>
#include <caml/atomic_refcount.h>
#include <stdint.h>
#include <stdlib.h>

#if defined(_WIN32)
#define PACOR_NO_MMAP
#else
#include <sys/mman.h>
#if !defined(MAP_ANONYMOUS) && defined(MAP_ANON)
#define MAP_ANONYMOUS MAP_ANON
#endif
#if !defined(MAP_ANONYMOUS)
#define PACOR_NO_MMAP
#endif
#endif

#ifndef PACOR_NO_MMAP
static void pacor_zeroed_finalize(value v)
{
  struct caml_ba_array *b = Caml_ba_array_val(v);
  if (b->proxy == NULL) {
    munmap(b->data, caml_ba_byte_size(b));
  } else if (caml_atomic_refcount_decr(&b->proxy->refcount) == 1) {
    munmap(b->proxy->data, b->proxy->size);
    free(b->proxy);
  }
}

static struct custom_operations pacor_zeroed_ops = {
  "_bigarr02",
  pacor_zeroed_finalize,
  caml_ba_compare,
  caml_ba_hash,
  caml_ba_serialize,
  caml_ba_deserialize,
  custom_compare_ext_default,
  custom_fixed_length_default
};
#endif

CAMLprim value pacor_zeroed_ints(value vlen)
{
  CAMLparam1(vlen);
#ifndef PACOR_NO_MMAP
  CAMLlocal1(ba);
  intnat n = Long_val(vlen);
  size_t bytes;
  void *data;
  struct caml_ba_array *b;
  if (n <= 0 || (uintnat) n > SIZE_MAX / sizeof(intnat)) CAMLreturn(Val_none);
  bytes = (size_t) n * sizeof(intnat);
  data = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (data == MAP_FAILED) CAMLreturn(Val_none);
  ba = caml_alloc_custom_mem(&pacor_zeroed_ops, SIZEOF_BA_ARRAY + sizeof(intnat), bytes);
  b = Caml_ba_array_val(ba);
  b->data = data;
  b->num_dims = 1;
  b->flags = CAML_BA_CAML_INT | CAML_BA_C_LAYOUT | CAML_BA_MAPPED_FILE;
  b->proxy = NULL;
  b->dim[0] = n;
  CAMLreturn(caml_alloc_some(ba));
#else
  (void) vlen;
  CAMLreturn(Val_none);
#endif
}
