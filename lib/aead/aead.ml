module Metrics = Secdb_obs.Metrics

(* Auth failures are a correctness signal here, not ops sugar: the fixed
   schemes stand or fall on tampered cells actually being rejected, so the
   counter lets a workload prove its rejects happened. *)
let m_encrypts = Metrics.counter "aead.encrypts"
let m_decrypts = Metrics.counter "aead.decrypts"
let m_auth_failures = Metrics.counter "aead.auth_failures"
let m_bytes_encrypted = Metrics.counter "aead.bytes_encrypted"
let m_bytes_decrypted = Metrics.counter "aead.bytes_decrypted"

type invalid = Invalid

type t = {
  name : string;
  nonce_size : int;
  tag_size : int;
  expansion : int;
  encrypt : nonce:string -> ad:string -> string -> string * string;
  decrypt : nonce:string -> ad:string -> tag:string -> string -> (string, invalid) result;
}

let check_nonce t nonce =
  if String.length nonce <> t.nonce_size then
    invalid_arg
      (Printf.sprintf "%s: nonce must be %d bytes, got %d" t.name t.nonce_size
         (String.length nonce))

let encrypt t ~nonce ~ad m =
  check_nonce t nonce;
  Metrics.incr m_encrypts;
  Metrics.add m_bytes_encrypted (String.length m);
  t.encrypt ~nonce ~ad m

let decrypt t ~nonce ~ad ~tag c =
  Metrics.incr m_decrypts;
  Metrics.add m_bytes_decrypted (String.length c);
  let r =
    if String.length nonce <> t.nonce_size || String.length tag <> t.tag_size then Error Invalid
    else t.decrypt ~nonce ~ad ~tag c
  in
  (match r with Error Invalid -> Metrics.incr m_auth_failures | Ok _ -> ());
  r

let stored_overhead t = t.nonce_size + t.tag_size + t.expansion
