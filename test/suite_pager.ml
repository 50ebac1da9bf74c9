module Pager = Secdb_storage.Pager
module Blob = Secdb_storage.Blob_store
module Vfs = Secdb_storage.Vfs
module Xbytes = Secdb_util.Xbytes
module Rng = Secdb_util.Rng

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) ("secdb_pager_" ^ name)

let test_pager_basics () =
  let path = tmp "basic.pg" in
  let p = Pager.create ~path ~page_size:128 () in
  Alcotest.(check int) "page size" 128 (Pager.page_size p);
  let a = Pager.alloc p and b = Pager.alloc p in
  Alcotest.(check (pair int int)) "pages append" (1, 2) (a, b);
  Pager.write p a "hello page a";
  Pager.write p b "hello page b";
  Alcotest.(check string) "read back a" "hello page a" (String.sub (Pager.read p a) 0 12);
  Alcotest.(check string) "zero padded" (String.make 10 '\000')
    (String.sub (Pager.read p a) 12 10);
  (* an allocated page nobody wrote reads as zeros *)
  let c = Pager.alloc p in
  Alcotest.(check string) "unwritten page is zeros" (String.make 128 '\000') (Pager.read p c);
  Alcotest.check_raises "header protected" (Invalid_argument "Pager.write: page 0 out of range")
    (fun () -> Pager.write p 0 "");
  Alcotest.check_raises "oversized write"
    (Invalid_argument "Pager.write: data exceeds the page size") (fun () ->
      Pager.write p a (String.make 129 'x'));
  Pager.close p

let test_pager_persistence () =
  let path = tmp "persist.pg" in
  let p = Pager.create ~path ~page_size:256 () in
  let pages = List.init 10 (fun i -> (Pager.alloc p, Printf.sprintf "persistent page %d" i)) in
  List.iter (fun (page, content) -> Pager.write p page content) pages;
  Pager.close p;
  match Pager.open_file ~path () with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      Alcotest.(check int) "page size restored" 256 (Pager.page_size p');
      Alcotest.(check int) "page count restored" 10 (Pager.page_count p');
      List.iteri
        (fun i (page, content) ->
          Alcotest.(check string)
            (Printf.sprintf "page %d" i)
            content
            (String.sub (Pager.read p' page) 0 (String.length content)))
        pages;
      Alcotest.(check int) "allocation continues after reopen" 11 (Pager.alloc p');
      Pager.close p'

let test_pager_open_errors () =
  (match Pager.open_file ~path:(tmp "missing.pg") () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file opened");
  let path = tmp "junk.pg" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc "this is not a pager file at all");
  match Pager.open_file ~path () with
  | Error e -> Alcotest.(check bool) "reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "junk accepted"

(* forge a header with chosen fields and check open_file's verdict *)
let forged_header ?(reserved = 0) ~psize ~npages () =
  Pager.magic
  ^ Xbytes.int_to_be_string ~width:4 psize
  ^ Xbytes.int_to_be_string ~width:4 npages
  ^ Xbytes.int_to_be_string ~width:4 reserved

let test_header_validation () =
  let path = tmp "header.pg" in
  let try_header ?(pad = 0) h =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc h;
        Out_channel.output_string oc (String.make pad '\000'));
    Pager.open_file ~path ()
  in
  let expect_error name h =
    match try_header ~pad:256 h with
    | Error e -> Alcotest.(check bool) (name ^ " reported") true (String.length e > 0)
    | Ok _ -> Alcotest.fail (name ^ " accepted")
  in
  expect_error "tiny page size" (forged_header ~psize:32 ~npages:1 ());
  expect_error "zero page size" (forged_header ~psize:0 ~npages:1 ());
  (* bytes 16-19 are reserved (they once held a free-list head) *)
  expect_error "non-zero reserved field" (forged_header ~reserved:3 ~psize:64 ~npages:2 ());
  expect_error "wrong magic" ("XXXXXXXX" ^ String.sub (forged_header ~psize:64 ~npages:1 ()) 8 12);
  (* truncated header: shorter than 20 bytes must not be read as zeros *)
  (match try_header (String.sub (forged_header ~psize:64 ~npages:1 ()) 0 13) with
  | Error e -> Alcotest.(check bool) "truncated header reported" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "truncated header accepted");
  (* a well-formed forged header with no pages is fine *)
  match try_header (forged_header ~psize:64 ~npages:0 ()) with
  | Ok p -> Pager.close p
  | Error e -> Alcotest.fail ("valid minimal header rejected: " ^ e)

let test_short_read_open () =
  (* the fault VFS delivers reads in dribbles; open_file must loop, not
     decode a partial header *)
  let ctl = Vfs.Fault.make ~seed:42 () in
  Vfs.Fault.set_short_reads ctl true;
  let vfs = Vfs.Fault.vfs ctl in
  let path = "mem:short.pg" in
  let p = Pager.create ~path ~page_size:128 ~vfs () in
  let a = Pager.alloc p in
  Pager.write p a "short read survivor";
  Pager.close p;
  match Pager.open_file ~path ~vfs () with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      Alcotest.(check string) "data intact" "short read survivor"
        (String.sub (Pager.read p' a) 0 19);
      Pager.close p'

let test_write_through () =
  (* a write is in the file at once: no sync, no close *)
  let path = tmp "through.pg" in
  let p = Pager.create ~path ~page_size:64 () in
  let a = Pager.alloc p in
  Pager.write p a "on disk before any sync";
  let data = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check int) "file holds the header and the page" 128 (String.length data);
  Alcotest.(check string) "page bytes at their offset" "on disk before any sync"
    (String.sub data (a * 64) 23);
  Pager.close p

(* a backend over [Vfs.unix] that counts the writes and fsyncs it passes on *)
let counting_vfs () =
  let writes = ref 0 and fsyncs = ref 0 in
  let open_file ~path ~mode =
    let f = Vfs.unix.Vfs.open_file ~path ~mode in
    {
      f with
      Vfs.pwrite =
        (fun ~pos data ~off ~len ->
          incr writes;
          f.Vfs.pwrite ~pos data ~off ~len);
      fsync =
        (fun () ->
          incr fsyncs;
          f.Vfs.fsync ());
    }
  in
  ({ Vfs.name = "counting"; open_file }, writes, fsyncs)

let test_read_only_use_writes_nothing () =
  let path = tmp "readonly.pg" in
  let p = Pager.create ~path ~page_size:64 () in
  List.iter (fun s -> Pager.write p (Pager.alloc p) s) [ "one"; "two"; "three" ];
  Pager.close p;
  let before = In_channel.with_open_bin path In_channel.input_all in
  let vfs, writes, fsyncs = counting_vfs () in
  (match Pager.open_file ~path ~vfs () with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      Alcotest.(check string) "page read back" "two" (String.sub (Pager.read p' 2) 0 3);
      Pager.close p');
  Alcotest.(check int) "no write" 0 !writes;
  Alcotest.(check int) "no fsync" 0 !fsyncs;
  Alcotest.(check string) "image unchanged" before
    (In_channel.with_open_bin path In_channel.input_all);
  (* a write after open does reach the header again at close *)
  match Pager.open_file ~path ~vfs () with
  | Error e -> Alcotest.fail e
  | Ok p' ->
      Pager.write p' 1 "uno";
      Pager.close p';
      Alcotest.(check int) "page and header written" 2 !writes;
      Alcotest.(check int) "one fsync" 1 !fsyncs

let test_blob_roundtrip () =
  let path = tmp "blob.pg" in
  let p = Pager.create ~path ~page_size:96 () in
  let store = Blob.attach p in
  let rng = Rng.create ~seed:71L () in
  let blobs =
    List.init 30 (fun i -> (Rng.bytes rng (Rng.int rng 500), i))
    |> List.map (fun (data, _) -> (Blob.store store data, data))
  in
  List.iter
    (fun (id, data) ->
      match Blob.load store id with
      | Ok d when d = data -> ()
      | Ok _ -> Alcotest.fail "blob corrupted"
      | Error e -> Alcotest.fail (Blob.chain_error_to_string e))
    blobs;
  (* chains span multiple pages for large blobs *)
  let big_id = Blob.store store (String.make 1000 'B') in
  (match Blob.pages_of store big_id with
  | Ok pages -> Alcotest.(check bool) "multi-page" true (List.length pages >= 12)
  | Error e -> Alcotest.fail (Blob.chain_error_to_string e));
  (* empty blob *)
  let e = Blob.store store "" in
  (match Blob.load store e with Ok "" -> () | _ -> Alcotest.fail "empty blob");
  Pager.close p

let test_store_leaves_earlier_pages () =
  (* blobs are append-only: storing more never touches a stored chain *)
  let path = tmp "append.pg" in
  let p = Pager.create ~path ~page_size:80 () in
  let store = Blob.attach p in
  let first = Blob.store store (String.make 300 'F') in
  let first_pages =
    match Blob.pages_of store first with
    | Ok l -> l
    | Error e -> Alcotest.fail (Blob.chain_error_to_string e)
  in
  let page_bytes () =
    let data = In_channel.with_open_bin path In_channel.input_all in
    List.map (fun page -> String.sub data (page * 80) 80) first_pages
  in
  let before = page_bytes () in
  let later = List.map (fun n -> Blob.store store (String.make n 'L')) [ 0; 50; 400 ] in
  Pager.sync p;
  Alcotest.(check (list string)) "earlier pages byte-identical" before (page_bytes ());
  List.iter
    (fun id ->
      match Blob.pages_of store id with
      | Ok pages ->
          Alcotest.(check bool) "later blobs live on later pages" true
            (List.for_all (fun page -> page > List.fold_left max 0 first_pages) pages)
      | Error e -> Alcotest.fail (Blob.chain_error_to_string e))
    later;
  (match Blob.load store first with
  | Ok d -> Alcotest.(check string) "first blob intact" (String.make 300 'F') d
  | Error e -> Alcotest.fail (Blob.chain_error_to_string e));
  Pager.close p

let test_blob_persistence_of_saved_table () =
  (* the full artefact path: encrypted table -> bytes -> blob chain -> file,
     reopened and decoded *)
  let path = tmp "artefact.pg" in
  let aes = Secdb_cipher.Aes_fast.cipher ~key:(String.make 16 'K') in
  let scheme =
    Secdb_schemes.Fixed_cell.make ~aead:(Secdb_aead.Eax.make aes)
      ~nonce:(Secdb_aead.Nonce.counter ~size:16 ())
      ()
  in
  let schema =
    Secdb_db.Schema.v ~table_name:"t"
      [ Secdb_db.Schema.column "v" Secdb_db.Value.Ktext ]
  in
  let tbl = Secdb_query.Encrypted_table.create ~id:3 schema ~scheme:(fun _ -> scheme) in
  for i = 0 to 40 do
    ignore (Secdb_query.Encrypted_table.insert tbl [ Secdb_db.Value.Text (Printf.sprintf "row %d" i) ])
  done;
  let p = Pager.create ~path ~page_size:512 () in
  let id = Blob.store (Blob.attach p) (Secdb_storage.Storage.encode_table tbl) in
  Pager.close p;
  match Pager.open_file ~path () with
  | Error e -> Alcotest.fail e
  | Ok p' -> (
      match Blob.load (Blob.attach p') id with
      | Error e -> Alcotest.fail (Blob.chain_error_to_string e)
      | Ok bytes -> (
          match Secdb_storage.Storage.decode_table ~scheme:(fun _ -> scheme) bytes with
          | Error e -> Alcotest.fail e
          | Ok tbl' ->
              Alcotest.(check string) "cell decrypts after disk roundtrip" "row 17"
                (Secdb_db.Value.text_exn
                   (Secdb_query.Encrypted_table.get_exn tbl' ~row:17 ~col:0));
              Pager.close p'))

let qc = Test_seed.qc

let prop_blob_roundtrip =
  QCheck2.Test.make ~name:"blob store/load roundtrip" ~count:40
    QCheck2.Gen.(pair (string_size (int_range 0 700)) (string_size (int_range 0 700)))
    (fun (a, b) ->
      let path = tmp "prop.pg" in
      let p = Pager.create ~path ~page_size:80 () in
      let store = Blob.attach p in
      let ida = Blob.store store a in
      let idb = Blob.store store b in
      let ok_open = Blob.load store ida = Ok a && Blob.load store idb = Ok b in
      Pager.close p;
      match Pager.open_file ~path () with
      | Error e -> QCheck2.Test.fail_report e
      | Ok p' ->
          let store' = Blob.attach p' in
          let ok_reopened = Blob.load store' ida = Ok a && Blob.load store' idb = Ok b in
          Pager.close p';
          ok_open && ok_reopened)

let suites =
  [
    ( "storage:pager",
      [
        Alcotest.test_case "basics" `Quick test_pager_basics;
        Alcotest.test_case "persistence" `Quick test_pager_persistence;
        Alcotest.test_case "open errors" `Quick test_pager_open_errors;
        Alcotest.test_case "header validation" `Quick test_header_validation;
        Alcotest.test_case "short reads while opening" `Quick test_short_read_open;
        Alcotest.test_case "writes reach the file before sync" `Quick test_write_through;
        Alcotest.test_case "read-only use writes nothing" `Quick
          test_read_only_use_writes_nothing;
      ] );
    ( "storage:blobs",
      [
        Alcotest.test_case "roundtrips" `Quick test_blob_roundtrip;
        Alcotest.test_case "a store leaves earlier pages untouched" `Quick
          test_store_leaves_earlier_pages;
        Alcotest.test_case "encrypted table through the pager" `Quick
          test_blob_persistence_of_saved_table;
        qc prop_blob_roundtrip;
      ] );
  ]
