open Secdb_util
module Aead = Secdb_aead.Aead
module Bptree = Secdb_index.Bptree
module Value = Secdb_db.Value

let be8 = Xbytes.int_to_be_string ~width:8

let associated_data ~indexed_table ~indexed_col (ctx : Bptree.ctx) =
  let kind_marker = match ctx.kind with Bptree.Inner -> "I" | Bptree.Leaf -> "L" in
  Secdb_db.Codec.frame
    [ be8 ctx.index_table; be8 indexed_table; be8 indexed_col; be8 ctx.node_row; kind_marker ]

let codec ~(aead : Aead.t) ~(nonce : Secdb_aead.Nonce.t) ~indexed_table ~indexed_col () =
  let ad = associated_data ~indexed_table ~indexed_col in
  {
    Bptree.codec_name = Printf.sprintf "fixed-index[%s]" aead.Aead.name;
    encode =
      (fun ctx ~value ~table_row ->
        let reft = match table_row with Some r -> be8 r | None -> "" in
        let plaintext = Secdb_db.Codec.frame [ Value.encode value; reft ] in
        let n = nonce () in
        let ct, tag = Aead.encrypt aead ~nonce:n ~ad:(ad ctx) plaintext in
        Secdb_db.Codec.frame [ n; ct; tag ]);
    decode =
      (fun ctx payload ->
        match Secdb_db.Codec.unframe3 payload with
        | Error _ -> Error "fixed-index: invalid"
        | Ok (n, ct, tag) -> (
            match Aead.decrypt aead ~nonce:n ~ad:(ad ctx) ~tag ct with
            | Error Aead.Invalid -> Error "fixed-index: invalid"
            | Ok plaintext -> (
                match Secdb_db.Codec.unframe2 plaintext with
                | Error _ -> Error "fixed-index: invalid"
                | Ok (v, reft) -> (
                    let table_row =
                      if reft = "" then Ok None
                      else if String.length reft = 8 then
                        Ok (Some (Xbytes.be_string_to_int reft))
                      else Error "fixed-index: invalid"
                    in
                    match table_row with
                    | Error e -> Error e
                    | Ok table_row ->
                        Result.map (fun value -> (value, table_row)) (Value.decode v)))));
    (* AEAD cannot decrypt without authenticating: the published leaf-level
       bug (paper footnote 1) is not even expressible against this scheme *)
    decode_unverified = None;
  }
