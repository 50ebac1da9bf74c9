open Secdb_util

let strip_nuls s =
  let n = ref (String.length s) in
  while !n > 0 && s.[!n - 1] = '\000' do
    decr n
  done;
  String.sub s 0 !n

let make ~(e : Einst.t) ~(mu : Secdb_db.Address.mu) ?(strip_zero_extension = false) ~validate
    () =
  {
    Cell_scheme.name = Printf.sprintf "xor-scheme[%s,%s]" e.name mu.name;
    deterministic = e.deterministic;
    encrypt = (fun addr v -> e.enc (Xbytes.xor v (mu.digest addr)));
    decrypt =
      (fun addr ct ->
        match e.dec ct with
        | Error err -> Error err
        | Ok masked ->
            let v = Xbytes.xor masked (mu.digest addr) in
            let v = if strip_zero_extension then strip_nuls v else v in
            if validate v then Ok v
            else Error "xor-scheme: decrypted value fails the column redundancy check");
  }
