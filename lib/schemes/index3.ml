open Secdb_util
module Bptree = Secdb_index.Bptree
module Value = Secdb_db.Value

let be8 = Xbytes.int_to_be_string ~width:8

let codec ~(e : Einst.t) =
  let decode ~verify (ctx : Bptree.ctx) payload =
    match e.dec payload with
    | Error err -> Error err
    | Ok plain ->
        let tail = if ctx.kind = Bptree.Leaf then 16 else 8 in
        if String.length plain < tail + 1 then Error "index3: plaintext too short"
        else
          let n = String.length plain in
          let r_i = Xbytes.be_string_to_int (String.sub plain (n - 8) 8) in
          if verify && r_i <> ctx.node_row then
            Error
              (Printf.sprintf "index3: self-reference mismatch (stored %d, node %d)" r_i
                 ctx.node_row)
          else
            let table_row =
              if ctx.kind = Bptree.Leaf then
                Some (Xbytes.be_string_to_int (String.sub plain (n - 16) 8))
              else None
            in
            Result.map
              (fun value -> (value, table_row))
              (Value.decode (String.sub plain 0 (n - tail)))
  in
  {
    Bptree.codec_name = Printf.sprintf "index3[%s]" e.name;
    encode =
      (fun ctx ~value ~table_row ->
        let v = Value.encode value in
        match (ctx.kind, table_row) with
        | Bptree.Inner, None -> e.enc (v ^ be8 ctx.node_row)
        | Bptree.Leaf, Some r -> e.enc (v ^ be8 r ^ be8 ctx.node_row)
        | Bptree.Inner, Some _ -> invalid_arg "index3: inner entries carry no table row"
        | Bptree.Leaf, None -> invalid_arg "index3: leaf entries need a table row");
    decode = decode ~verify:true;
    decode_unverified = Some (decode ~verify:false);
  }
