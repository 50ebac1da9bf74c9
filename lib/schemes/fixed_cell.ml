module Aead = Secdb_aead.Aead

let ad_of_address addr = Secdb_db.Address.encode addr

let make ?(ad_of = ad_of_address) ~(aead : Aead.t) ~(nonce : Secdb_aead.Nonce.t) () =
  {
    Cell_scheme.name = Printf.sprintf "fixed-cell[%s]" aead.Aead.name;
    deterministic = false;
    encrypt =
      (fun addr v ->
        let n = nonce () in
        let ct, tag = Aead.encrypt aead ~nonce:n ~ad:(ad_of addr) v in
        Secdb_db.Codec.frame [ n; ct; tag ]);
    decrypt =
      (fun addr stored ->
        match Secdb_db.Codec.unframe3 stored with
        | Error _ -> Error "fixed-cell: invalid"
        | Ok (n, ct, tag) -> (
            match Aead.decrypt aead ~nonce:n ~ad:(ad_of addr) ~tag ct with
            | Ok v -> Ok v
            | Error Aead.Invalid -> Error "fixed-cell: invalid"));
  }

let storage_overhead ~(aead : Aead.t) = Aead.stored_overhead aead + 12
