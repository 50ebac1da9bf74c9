type hash = {
  name : string;
  digest : string -> string;
  digest_size : int;
  block_size : int;
}

let sha1 =
  { name = "sha1"; digest = Sha1.digest; digest_size = Sha1.digest_size; block_size = Sha1.block_size }

let sha256 =
  {
    name = "sha256";
    digest = Sha256.digest;
    digest_size = Sha256.digest_size;
    block_size = Sha256.block_size;
  }

let md5 =
  { name = "md5"; digest = Md5.digest; digest_size = Md5.digest_size; block_size = Md5.block_size }

(* The padded-key xor strings are pure functions of the key, so a keyed
   instance computes them once.  For SHA-256 the hoisting goes one block
   further: the ipad/opad strings are exactly one compression each, so the
   keyed instance stores the two midstates and a message costs two context
   copies instead of two key-block compressions and two concatenation
   copies.  The midstates are only ever [copy]d after construction, so
   sharing a keyed instance across domains stays safe. *)
type keyed = {
  h : hash;
  ipad : string;
  opad : string;
  mid : (Sha256.ctx * Sha256.ctx) option;  (* inner, outer midstates *)
}

let keyed h ~key =
  let key = if String.length key > h.block_size then h.digest key else key in
  let key = key ^ String.make (h.block_size - String.length key) '\000' in
  let ipad = String.map (fun c -> Char.chr (Char.code c lxor 0x36)) key
  and opad = String.map (fun c -> Char.chr (Char.code c lxor 0x5c)) key in
  let mid =
    if h == sha256 then begin
      let midstate pad =
        let c = Sha256.init () in
        Sha256.feed c pad;
        c
      in
      Some (midstate ipad, midstate opad)
    end
    else None
  in
  { h; ipad; opad; mid }

let mac_keyed_parts k parts =
  match k.mid with
  | Some (i0, o0) ->
      let c = Sha256.copy i0 in
      List.iter (Sha256.feed c) parts;
      let inner = Sha256.finish c in
      let o = Sha256.copy o0 in
      Sha256.feed o inner;
      Sha256.finish o
  | None ->
      k.h.digest (k.opad ^ k.h.digest (k.ipad ^ String.concat "" parts))

let mac_keyed k msg = mac_keyed_parts k [ msg ]

let mac_keyed_truncated k ~bytes msg = Secdb_util.Xbytes.take bytes (mac_keyed k msg)

let mac h ~key msg = mac_keyed (keyed h ~key) msg

let mac_truncated h ~key ~bytes msg = Secdb_util.Xbytes.take bytes (mac h ~key msg)

let verify h ~key ~tag msg =
  let computed = Secdb_util.Xbytes.take (String.length tag) (mac h ~key msg) in
  Secdb_util.Xbytes.constant_time_equal computed tag
