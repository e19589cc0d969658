/* Incremental MD5 for Offline.digest_reports: the runtime's own
   MD5Init/Update/Final (the code behind Digest.string), driven over a
   context held in an 88-byte OCaml [bytes], so a report stream is
   hashed in chunks instead of being materialised as one string first.
   None of these allocate or raise. */

#define CAML_INTERNALS
#include <caml/mlvalues.h>
#include <caml/md5.h>

/* the context size offline.ml allocates */
_Static_assert(sizeof(struct MD5Context) == 88, "MD5Context is not 88 bytes");

#define Ctx_val(v) ((struct MD5Context *) Bytes_val(v))

value raceguard_md5_init(value ctx)
{
  caml_MD5Init(Ctx_val(ctx));
  return Val_unit;
}

value raceguard_md5_update(value ctx, value buf, value len)
{
  caml_MD5Update(Ctx_val(ctx), Bytes_val(buf), Long_val(len));
  return Val_unit;
}

value raceguard_md5_final(value ctx, value digest)
{
  caml_MD5Final(Bytes_val(digest), Ctx_val(ctx));
  return Val_unit;
}
