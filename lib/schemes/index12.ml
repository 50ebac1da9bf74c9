open Secdb_util
module Bptree = Secdb_index.Bptree
module Value = Secdb_db.Value

let be8 = Xbytes.int_to_be_string ~width:8

let ref_s ~indexed_table ~indexed_col (ctx : Bptree.ctx) =
  be8 ctx.index_table ^ be8 indexed_table ^ be8 indexed_col ^ be8 ctx.node_row

let codec ~(e : Einst.t) ~mac_cipher ?(rand_len = 8) ~rng ~indexed_table ~indexed_col () =
  if rand_len < 1 || rand_len >= e.block_size then
    invalid_arg "index12: rand_len must be positive and below the block size";
  let mac = Secdb_mac.Cmac.mac mac_cipher in
  let ref_i = "" (* see interface note *) in
  let mac_input v reft_bytes ctx =
    v ^ ref_i ^ reft_bytes ^ ref_s ~indexed_table ~indexed_col ctx
  in
  let decode ~verify ctx payload =
    match Secdb_db.Codec.unframe3 payload with
    | Error err -> Error err
    | Ok (etilde, e_reft, tag) -> (
        match e.dec etilde with
        | Error err -> Error err
        | Ok va ->
            if String.length va < rand_len + 1 then Error "index12: plaintext too short"
            else
              let v = String.sub va 0 (String.length va - rand_len) in
              let reft =
                if e_reft = "" then Ok None
                else
                  match e.dec e_reft with
                  | Error err -> Error err
                  | Ok r when String.length r = 8 -> Ok (Some (Xbytes.be_string_to_int r))
                  | Ok _ -> Error "index12: malformed table reference"
              in
              (match reft with
              | Error err -> Error err
              | Ok table_row ->
                  let reft_bytes = match table_row with Some r -> be8 r | None -> "" in
                  if
                    verify
                    && not
                         (Xbytes.constant_time_equal tag (mac (mac_input v reft_bytes ctx)))
                  then Error "index12: MAC mismatch"
                  else Result.map (fun value -> (value, table_row)) (Value.decode v)))
  in
  {
    Bptree.codec_name = Printf.sprintf "index12[%s,omac(%s)]" e.name mac_cipher.name;
    encode =
      (fun ctx ~value ~table_row ->
        let v = Value.encode value in
        let a = Rng.bytes rng rand_len in
        let etilde = e.enc (v ^ a) in
        let reft_bytes = match table_row with Some r -> be8 r | None -> "" in
        let e_reft = match table_row with Some _ -> e.enc reft_bytes | None -> "" in
        let tag = mac (mac_input v reft_bytes ctx) in
        Secdb_db.Codec.frame [ etilde; e_reft; tag ]);
    decode = decode ~verify:true;
    decode_unverified = Some (decode ~verify:false);
  }
