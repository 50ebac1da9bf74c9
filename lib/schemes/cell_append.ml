open Secdb_util

let make ~(e : Einst.t) ~(mu : Secdb_db.Address.mu) =
  {
    Cell_scheme.name = Printf.sprintf "append-scheme[%s,%s]" e.name mu.name;
    deterministic = e.deterministic;
    encrypt = (fun addr v -> e.enc (v ^ mu.digest addr));
    decrypt =
      (fun addr ct ->
        match e.dec ct with
        | Error err -> Error err
        | Ok plain ->
            let n = String.length plain in
            if n < mu.width then Error "append-scheme: plaintext shorter than the address checksum"
            else
              let v = String.sub plain 0 (n - mu.width) in
              let checksum = String.sub plain (n - mu.width) mu.width in
              if Xbytes.constant_time_equal checksum (mu.digest addr) then Ok v
              else Error "append-scheme: address checksum mismatch");
  }
