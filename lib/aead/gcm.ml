open Secdb_util

(* GF(2^128) with GCM's reflected bit order: bit 0 of the polynomial is the
   MSB of byte 0.  R = 11100001 || 0^120.

   Two multipliers live here.  [gf_mult] is the bit-by-bit reference the
   seed shipped — 128 shift/xor rounds over byte strings — retained verbatim
   as the correctness oracle for the table path (QCheck in suite_aead, the
   --check gate in bench/perf).  [htable]/[gf_mult_table] is the Shoup
   8-bit table path the AEAD actually runs on: 256 precomputed multiples of
   H plus a byte-shift reduction table, all held as 32-bit words in native
   ints so the hot loop is pure unboxed integer arithmetic (the same
   discipline as Aes_fast). *)

let gf_mult x y =
  let z = Bytes.make 16 '\000' in
  let v = Bytes.of_string y in
  let xor_into dst src =
    for i = 0 to 15 do
      Bytes.set dst i (Char.chr (Char.code (Bytes.get dst i) lxor Char.code (Bytes.get src i)))
    done
  in
  let shift_right_one b =
    let carry = ref 0 in
    for i = 0 to 15 do
      let c = Char.code (Bytes.get b i) in
      Bytes.set b i (Char.chr ((c lsr 1) lor (!carry lsl 7)));
      carry := c land 1
    done;
    !carry
  in
  for i = 0 to 127 do
    let bit = (Char.code x.[i / 8] lsr (7 - (i mod 8))) land 1 in
    if bit = 1 then xor_into z v;
    let lsb = shift_right_one v in
    if lsb = 1 then Bytes.set v 0 (Char.chr (Char.code (Bytes.get v 0) lxor 0xe1))
  done;
  Bytes.unsafe_to_string z

let ghash_ref ~h data =
  if String.length data mod 16 <> 0 then
    invalid_arg "Gcm.ghash: input must be a multiple of 16 bytes";
  let y = ref (String.make 16 '\000') in
  List.iter (fun blk -> y := gf_mult (Xbytes.xor_exact !y blk) h) (Xbytes.blocks 16 data);
  !y

(* ------------------------------------------------- table-driven GHASH -- *)

(* An element is four 32-bit big-endian words (word 0 = bytes 0..3, so the
   x^0 coefficient is bit 31 of word 0).  [t0..t3] hold T[b] = poly(b) * H
   for every byte value b, where bit (7-q) of b is the x^q coefficient;
   [r0] folds the byte shifted out by a *x^8 step back in: the outgoing
   byte carries degrees 128..135, and x^(128+q) = x^(q+7)+x^(q+2)+x^(q+1)+x^q
   lands entirely in word 0. *)
type htable = {
  t0 : int array;
  t1 : int array;
  t2 : int array;
  t3 : int array;
  r0 : int array;
}

let htable h =
  if String.length h <> 16 then invalid_arg "Gcm.htable: H must be 16 bytes";
  let t0 = Array.make 256 0
  and t1 = Array.make 256 0
  and t2 = Array.make 256 0
  and t3 = Array.make 256 0 in
  (* single-bit entries by repeated multiplication by x: T[0x80 lsr q] = H*x^q *)
  let h0 = ref (Xbytes.get_uint32_be h 0)
  and h1 = ref (Xbytes.get_uint32_be h 4)
  and h2 = ref (Xbytes.get_uint32_be h 8)
  and h3 = ref (Xbytes.get_uint32_be h 12) in
  let i = ref 0x80 in
  while !i >= 1 do
    t0.(!i) <- !h0;
    t1.(!i) <- !h1;
    t2.(!i) <- !h2;
    t3.(!i) <- !h3;
    let lsb = !h3 land 1 in
    h3 := (!h3 lsr 1) lor ((!h2 land 1) lsl 31);
    h2 := (!h2 lsr 1) lor ((!h1 land 1) lsl 31);
    h1 := (!h1 lsr 1) lor ((!h0 land 1) lsl 31);
    h0 := (!h0 lsr 1) lxor (if lsb = 1 then 0xe1000000 else 0);
    i := !i lsr 1
  done;
  (* composite entries: T[i lor j] = T[i] xor T[j], filled in index order *)
  let i = ref 2 in
  while !i <= 0x80 do
    for j = 1 to !i - 1 do
      t0.(!i lor j) <- t0.(!i) lxor t0.(j);
      t1.(!i lor j) <- t1.(!i) lxor t1.(j);
      t2.(!i lor j) <- t2.(!i) lxor t2.(j);
      t3.(!i lor j) <- t3.(!i) lxor t3.(j)
    done;
    i := !i lsl 1
  done;
  let r0 = Array.make 256 0 in
  for b = 0 to 255 do
    let r = ref 0 in
    for q = 0 to 7 do
      if b land (0x80 lsr q) <> 0 then
        List.iter
          (fun d -> r := !r lxor (1 lsl (31 - d)))
          [ q; q + 1; q + 2; q + 7 ]
    done;
    r0.(b) <- !r
  done;
  { t0; t1; t2; t3; r0 }

(* The GHASH accumulator, mutable so a whole message folds with no
   allocation.  Word values stay masked to 32 bits. *)
type acc = { mutable y0 : int; mutable y1 : int; mutable y2 : int; mutable y3 : int }

let acc_create () = { y0 = 0; y1 = 0; y2 = 0; y3 = 0 }

let acc_reset a =
  a.y0 <- 0;
  a.y1 <- 0;
  a.y2 <- 0;
  a.y3 <- 0

(* y := (y xor [x0..x3]) * H.  Horner over the 16 bytes of the xored value,
   most significant byte last: each step multiplies the partial product by
   x^8 (a one-byte right shift of the element, reduction via r0) and adds
   T[next byte].  All operands are immediate ints; the only memory traffic
   is the table loads (indices are masked to 0..255, so unsafe access is
   in bounds). *)
let[@inline] acc_mult t a x0 x1 x2 x3 =
  let x0 = a.y0 lxor x0
  and x1 = a.y1 lxor x1
  and x2 = a.y2 lxor x2
  and x3 = a.y3 lxor x3 in
  let z0 = ref 0 and z1 = ref 0 and z2 = ref 0 and z3 = ref 0 in
  let step b =
    let out = !z3 land 0xff in
    z3 := ((!z3 lsr 8) lor ((!z2 land 0xff) lsl 24)) land 0xffffffff;
    z2 := ((!z2 lsr 8) lor ((!z1 land 0xff) lsl 24)) land 0xffffffff;
    z1 := ((!z1 lsr 8) lor ((!z0 land 0xff) lsl 24)) land 0xffffffff;
    z0 := (!z0 lsr 8) lxor Array.unsafe_get t.r0 out;
    z0 := !z0 lxor Array.unsafe_get t.t0 b;
    z1 := !z1 lxor Array.unsafe_get t.t1 b;
    z2 := !z2 lxor Array.unsafe_get t.t2 b;
    z3 := !z3 lxor Array.unsafe_get t.t3 b
  in
  let word w =
    step (w land 0xff);
    step ((w lsr 8) land 0xff);
    step ((w lsr 16) land 0xff);
    step ((w lsr 24) land 0xff)
  in
  word x3;
  word x2;
  word x1;
  word x0;
  a.y0 <- !z0;
  a.y1 <- !z1;
  a.y2 <- !z2;
  a.y3 <- !z3

let get32_bytes b i =
  (Char.code (Bytes.unsafe_get b i) lsl 24)
  lor (Char.code (Bytes.unsafe_get b (i + 1)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (i + 2)) lsl 8)
  lor Char.code (Bytes.unsafe_get b (i + 3))

(* Fold [nblocks] consecutive 16-byte blocks of [src] starting at [off]. *)
let acc_fold t a src ~off ~nblocks =
  if off < 0 || off + (16 * nblocks) > Bytes.length src then
    invalid_arg "Gcm: ghash block range out of bounds";
  for i = 0 to nblocks - 1 do
    let p = off + (16 * i) in
    acc_mult t a (get32_bytes src p) (get32_bytes src (p + 4)) (get32_bytes src (p + 8))
      (get32_bytes src (p + 12))
  done

let acc_fold_str t a src ~off ~nblocks =
  acc_fold t a (Bytes.unsafe_of_string src) ~off ~nblocks

let acc_output a dst ~off =
  Xbytes.set_uint32_be dst off a.y0;
  Xbytes.set_uint32_be dst (off + 4) a.y1;
  Xbytes.set_uint32_be dst (off + 8) a.y2;
  Xbytes.set_uint32_be dst (off + 12) a.y3

let ghash_into t ~acc:dst src ~off ~nblocks =
  if Bytes.length dst < 16 then invalid_arg "Gcm.ghash_into: accumulator must be 16 bytes";
  let a =
    {
      y0 = get32_bytes dst 0;
      y1 = get32_bytes dst 4;
      y2 = get32_bytes dst 8;
      y3 = get32_bytes dst 12;
    }
  in
  acc_fold t a src ~off ~nblocks;
  acc_output a dst ~off:0

let gf_mult_table t x =
  if String.length x <> 16 then invalid_arg "Gcm.gf_mult_table: operand must be 16 bytes";
  let a = acc_create () in
  acc_fold_str t a x ~off:0 ~nblocks:1;
  let out = Bytes.create 16 in
  acc_output a out ~off:0;
  Bytes.unsafe_to_string out

let ghash ~h data =
  if String.length data mod 16 <> 0 then
    invalid_arg "Gcm.ghash: input must be a multiple of 16 bytes";
  let t = htable h in
  let a = acc_create () in
  acc_fold_str t a data ~off:0 ~nblocks:(String.length data / 16);
  let out = Bytes.create 16 in
  acc_output a out ~off:0;
  Bytes.unsafe_to_string out

(* --------------------------------------------------------------- GCM -- *)

let make ?(tag_size = 16) (c : Secdb_cipher.Block.t) =
  if c.block_size <> 16 then invalid_arg "Gcm.make: 16-byte block required";
  if tag_size < 1 || tag_size > 16 then invalid_arg "Gcm.make: tag size out of range";
  (* per-make hoists: H, its multiplication tables, and the cipher's native
     into-kernel.  No mutable scratch lives in the closure — one AEAD
     value may be shared across domains, so all working buffers below
     are per call (a handful of 16-byte buffers per message, not per
     block). *)
  let h = c.encrypt (String.make 16 '\000') in
  let t = htable h in
  let enc = Secdb_cipher.Block.encrypt_into c in
  (* CTR with a 32-bit counter in the last 4 bytes, from inc32(j0) = 2 as
     GCM specifies for 12-byte nonces: one reusable counter block, one
     reusable keystream block, xor straight over the output buffer. *)
  let gctr_into ~cb ~ks out len =
    let nfull = len lsr 4 in
    let ctr = ref 2 in
    for i = 0 to nfull - 1 do
      Xbytes.set_uint32_be cb 12 (!ctr land 0xffffffff);
      incr ctr;
      enc cb ~src_off:0 ks ~dst_off:0;
      Xbytes.xor_blit ~src:ks ~src_off:0 ~dst:out ~dst_off:(16 * i) ~len:16
    done;
    let tail = len land 15 in
    if tail > 0 then begin
      Xbytes.set_uint32_be cb 12 (!ctr land 0xffffffff);
      enc cb ~src_off:0 ks ~dst_off:0;
      Xbytes.xor_blit ~src:ks ~src_off:0 ~dst:out ~dst_off:(16 * nfull) ~len:tail
    end
  in
  (* GHASH(pad16 ad || pad16 ct || len64 ad || len64 ct), ct read from a
     bytes buffer; [pad] is a caller-supplied 16-byte scratch. *)
  let ghash_tag a ~pad ~ad ct ct_len =
    acc_reset a;
    let ad_full = String.length ad lsr 4 in
    acc_fold_str t a ad ~off:0 ~nblocks:ad_full;
    let ad_tail = String.length ad land 15 in
    if ad_tail > 0 then begin
      Bytes.fill pad 0 16 '\000';
      Bytes.blit_string ad (16 * ad_full) pad 0 ad_tail;
      acc_fold t a pad ~off:0 ~nblocks:1
    end;
    let ct_full = ct_len lsr 4 in
    acc_fold t a ct ~off:0 ~nblocks:ct_full;
    let ct_tail = ct_len land 15 in
    if ct_tail > 0 then begin
      Bytes.fill pad 0 16 '\000';
      Bytes.blit ct (16 * ct_full) pad 0 ct_tail;
      acc_fold t a pad ~off:0 ~nblocks:1
    end;
    Xbytes.set_uint64_be pad 0 (Int64.of_int (8 * String.length ad));
    Xbytes.set_uint64_be pad 8 (Int64.of_int (8 * ct_len));
    acc_fold t a pad ~off:0 ~nblocks:1
  in
  (* tag = E(j0) xor GHASH(...), truncated; [cb] must hold nonce||counter
     and is reset to the j0 counter value 1 here *)
  let finish_tag a ~cb ~ks ~pad =
    Xbytes.set_uint32_be cb 12 1;
    enc cb ~src_off:0 ks ~dst_off:0;
    acc_output a pad ~off:0;
    Xbytes.xor_blit ~src:pad ~src_off:0 ~dst:ks ~dst_off:0 ~len:16;
    if tag_size = 16 then Bytes.to_string ks else Bytes.sub_string ks 0 tag_size
  in
  let encrypt ~nonce ~ad m =
    let len = String.length m in
    let out = Bytes.of_string m in
    let cb = Bytes.create 16 and ks = Bytes.create 16 and pad = Bytes.create 16 in
    Bytes.blit_string nonce 0 cb 0 12;
    gctr_into ~cb ~ks out len;
    let a = acc_create () in
    ghash_tag a ~pad ~ad out len;
    let tag = finish_tag a ~cb ~ks ~pad in
    (Bytes.unsafe_to_string out, tag)
  in
  let decrypt ~nonce ~ad ~tag ct =
    let len = String.length ct in
    let cb = Bytes.create 16 and ks = Bytes.create 16 and pad = Bytes.create 16 in
    Bytes.blit_string nonce 0 cb 0 12;
    let a = acc_create () in
    ghash_tag a ~pad ~ad (Bytes.unsafe_of_string ct) len;
    let expected = finish_tag a ~cb ~ks ~pad in
    if not (Xbytes.constant_time_equal expected tag) then Error Aead.Invalid
    else begin
      let out = Bytes.of_string ct in
      gctr_into ~cb ~ks out len;
      Ok (Bytes.unsafe_to_string out)
    end
  in
  {
    Aead.name = Printf.sprintf "gcm(%s)" c.name;
    nonce_size = 12;
    tag_size;
    expansion = 0;
    encrypt;
    decrypt;
  }
