(* Key rotation over a persisted encrypted database.

   The paper's trust model hands session keys to the DBMS and wipes them
   afterwards; operationally that demands a rotation story: decrypt under
   the outgoing master, re-encrypt everything (cells and index payloads,
   each bound to its position) under the incoming one, and prove that

     - the rotated database answers identically,
     - every stored byte actually changed,
     - the old master no longer opens anything.

   Run with:  dune exec examples/key_rotation.exe *)

open Secdb
module Value = Secdb_db.Value
module Schema = Secdb_db.Schema
module Etable = Secdb_query.Encrypted_table

let path = Filename.concat (Filename.get_temp_dir_name ()) "secdb_rotation_demo.db"

let schema =
  Schema.v ~table_name:"vault"
    [
      Schema.column ~protection:Schema.Clear "id" Value.Kint;
      Schema.column "secret" Value.Ktext;
    ]

let () =
  let profile = Encdb.Fixed Encdb.Gcm in
  let db = Encdb.create ~master:"winter-2025-master" ~profile () in
  Encdb.create_table db schema;
  for i = 0 to 99 do
    ignore
      (Encdb.insert db ~table:"vault"
         [ Value.Int (Int64.of_int i); Value.Text (Printf.sprintf "secret payload #%03d" i) ])
  done;
  Encdb.create_index db ~table:"vault" ~col:"secret";
  let before = Option.get (Etable.raw_ciphertext (Encdb.table db "vault") ~row:42 ~col:1) in

  (* rotate: everything is decrypted and re-encrypted under the new keys *)
  let db = Encdb.rotate_master db ~new_master:"spring-2026-master" in
  let after = Option.get (Etable.raw_ciphertext (Encdb.table db "vault") ~row:42 ~col:1) in
  Printf.printf "stored bytes changed: %b\n" (before <> after);

  (match Encdb.select_eq db ~table:"vault" ~col:"secret" (Value.Text "secret payload #042") with
  | Ok [ (42, _) ] -> print_endline "rotated database answers correctly"
  | Ok _ -> print_endline "UNEXPECTED: wrong answer after rotation"
  | Error e -> Printf.printf "UNEXPECTED: %s\n" e);

  (* persist under the new master, then demonstrate that the old one fails *)
  Encdb.save db ~path ();
  Encdb.close db;
  (match Encdb.load ~master:"winter-2025-master" ~profile ~path ~seed:5L () with
  | Error e -> Printf.printf "old master rejected at load: %s\n" e
  | Ok stale -> (
      match Encdb.select_eq stale ~table:"vault" ~col:"secret" (Value.Text "secret payload #042") with
      | Error _ -> print_endline "old master key opens nothing (decryption fails closed)"
      | Ok [] -> print_endline "old master key finds nothing"
      | Ok _ -> print_endline "UNEXPECTED: old master still works"));
  match Encdb.load ~master:"spring-2026-master" ~profile ~path ~seed:6L () with
  | Error e -> Printf.printf "UNEXPECTED: %s\n" e
  | Ok db' -> (
      match Encdb.select_eq db' ~table:"vault" ~col:"secret" (Value.Text "secret payload #007") with
      | Ok [ (7, _) ] -> print_endline "new master reopens the saved database"
      | _ -> print_endline "UNEXPECTED: reload failed")
