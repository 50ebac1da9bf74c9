open Secdb_util

(* OCB1 (Rogaway et al., 2001).  Offsets: L = E_K(0), R = E_K(N xor L),
   Z_1 = L xor R, Z_{i+1} = Z_i xor L*x^{ntz(i+1)}.

   Key-only material — L, L*x^{-1}, the L*x^j power table, and the keyed
   PMAC for the header — is hoisted once per [make]; a message costs
   exactly its blockcipher calls plus a handful of per-call 16-byte
   buffers (never per-make scratch: one AEAD value may be shared across
   domains). *)

let make ?tag_size (c : Secdb_cipher.Block.t) =
  let tag_size = Option.value tag_size ~default:c.block_size in
  if tag_size < 1 || tag_size > c.block_size then
    invalid_arg "Ocb.make: tag size out of range";
  let bs = c.block_size in
  let enc = Secdb_cipher.Block.encrypt_into c in
  let dec = Secdb_cipher.Block.decrypt_into c in
  let l = c.encrypt (Secdb_cipher.Block.zero_block c) in
  let l_inv = Secdb_mac.Gf128.inv_dbl l in
  let l_pow = Array.make 63 l in
  for j = 1 to 62 do
    l_pow.(j) <- Secdb_mac.Gf128.dbl l_pow.(j - 1)
  done;
  let pmac_k = Secdb_mac.Pmac.keyed c in
  let core ~nonce ~decrypting msg =
    let len = String.length msg in
    let m = max 1 ((len + bs - 1) / bs) in
    (* the message transforms block-by-block in place in [out] *)
    let out = Bytes.of_string msg in
    let z = Bytes.of_string nonce in
    Xbytes.xor_into ~src:l ~dst:z ~dst_off:0;
    enc z ~src_off:0 z ~dst_off:0;
    (* z now holds R; fold L back in for Z_1 *)
    Xbytes.xor_into ~src:l ~dst:z ~dst_off:0;
    let checksum = Bytes.make bs '\000' in
    for i = 1 to m - 1 do
      let off = (i - 1) * bs in
      if decrypting then begin
        Xbytes.xor_blit ~src:z ~src_off:0 ~dst:out ~dst_off:off ~len:bs;
        dec out ~src_off:off out ~dst_off:off;
        Xbytes.xor_blit ~src:z ~src_off:0 ~dst:out ~dst_off:off ~len:bs;
        Xbytes.xor_blit ~src:out ~src_off:off ~dst:checksum ~dst_off:0 ~len:bs
      end
      else begin
        Xbytes.xor_blit ~src:out ~src_off:off ~dst:checksum ~dst_off:0 ~len:bs;
        Xbytes.xor_blit ~src:z ~src_off:0 ~dst:out ~dst_off:off ~len:bs;
        enc out ~src_off:off out ~dst_off:off;
        Xbytes.xor_blit ~src:z ~src_off:0 ~dst:out ~dst_off:off ~len:bs
      end;
      Xbytes.xor_into ~src:l_pow.(Secdb_mac.Gf128.ntz (i + 1)) ~dst:z ~dst_off:0
    done;
    let lastlen = len - ((m - 1) * bs) in
    let lastlen = if lastlen < 0 then 0 else lastlen in
    let last_off = (m - 1) * bs in
    (* X_m = len(M_m) xor L*x^{-1} xor Z_m ; Y_m = E_K(X_m) ;
       C_m = M_m xor msb(Y_m)  (same formula in both directions). *)
    let y = Bytes.make bs '\000' in
    Xbytes.set_uint32_be y (bs - 4) (8 * lastlen);
    Xbytes.xor_into ~src:l_inv ~dst:y ~dst_off:0;
    Xbytes.xor_blit ~src:z ~src_off:0 ~dst:y ~dst_off:0 ~len:bs;
    enc y ~src_off:0 y ~dst_off:0;
    if lastlen > 0 then
      Xbytes.xor_blit ~src:y ~src_off:0 ~dst:out ~dst_off:last_off ~len:lastlen;
    (* Checksum folds in C_m 0* (the ciphertext side), per the OCB spec. *)
    if decrypting then
      Xbytes.xor_blit ~src:(Bytes.unsafe_of_string msg) ~src_off:last_off ~dst:checksum
        ~dst_off:0 ~len:lastlen
    else
      Xbytes.xor_blit ~src:out ~src_off:last_off ~dst:checksum ~dst_off:0 ~len:lastlen;
    Xbytes.xor_blit ~src:y ~src_off:0 ~dst:checksum ~dst_off:0 ~len:bs;
    Xbytes.xor_blit ~src:z ~src_off:0 ~dst:checksum ~dst_off:0 ~len:bs;
    enc checksum ~src_off:0 checksum ~dst_off:0;
    (Bytes.unsafe_to_string out, Bytes.unsafe_to_string checksum)
  in
  let with_header ~ad tag_full =
    let tag_full =
      if ad = "" then tag_full
      else Xbytes.xor_exact tag_full (Secdb_mac.Pmac.mac_keyed pmac_k ad)
    in
    Xbytes.take tag_size tag_full
  in
  let encrypt ~nonce ~ad m =
    let ct, tag_full = core ~nonce ~decrypting:false m in
    (ct, with_header ~ad tag_full)
  in
  let decrypt ~nonce ~ad ~tag ct =
    let pt, tag_full = core ~nonce ~decrypting:true ct in
    if Xbytes.constant_time_equal (with_header ~ad tag_full) tag then Ok pt
    else Error Aead.Invalid
  in
  {
    Aead.name = Printf.sprintf "ocb+pmac(%s)" c.name;
    nonce_size = bs;
    tag_size;
    expansion = 0;
    encrypt;
    decrypt;
  }
