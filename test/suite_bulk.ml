(* The [Block.into] kernels agree byte-for-byte with the
   [string -> string] reference closures, at arbitrary buffer offsets, for
   every cipher, and every mode produces the same bytes on both paths. *)

open Secdb_util
module Block = Secdb_cipher.Block
module Mode = Secdb_modes.Mode

let key = Xbytes.of_hex "000102030405060708090a0b0c0d0e0f"
let key_mac = Xbytes.of_hex "ffeeddccbbaa99887766554433221100"
let aes_fast = Secdb_cipher.Aes_fast.cipher ~key
let hex = Xbytes.to_hex

let ciphers =
  [
    ("aes-fast", aes_fast);
    ("aes", Secdb_cipher.Aes.cipher ~key);
    ("des", Secdb_cipher.Des.cipher ~key:(String.sub key 0 8));
    ("des3", Secdb_cipher.Des3.cipher ~key:(key ^ String.sub key_mac 0 8));
  ]

(* --- kernel vs reference closures ------------------------------------- *)

let test_into_matches_string () =
  let rng = Rng.create ~seed:4242L () in
  List.iter
    (fun (name, (c : Block.t)) ->
      let bs = c.Block.block_size in
      for _ = 1 to 50 do
        (* random offsets into oversized buffers, including src = dst *)
        let src_off = Rng.int rng 24 and dst_off = Rng.int rng 24 in
        let block = Rng.bytes rng bs in
        let src = Bytes.of_string (Rng.bytes rng (bs + 48)) in
        Bytes.blit_string block 0 src src_off bs;
        let dst = Bytes.create (bs + 48) in
        Block.encrypt_into c src ~src_off dst ~dst_off;
        Alcotest.(check string)
          (name ^ " encrypt_into")
          (hex (c.Block.encrypt block))
          (hex (Bytes.sub_string dst dst_off bs));
        (* in-place: same buffer, same offset *)
        Block.encrypt_into c src ~src_off src ~dst_off:src_off;
        Alcotest.(check string)
          (name ^ " encrypt_into in place")
          (hex (c.Block.encrypt block))
          (hex (Bytes.sub_string src src_off bs));
        let ct = c.Block.encrypt block in
        let csrc = Bytes.of_string (Rng.bytes rng (bs + 48)) in
        Bytes.blit_string ct 0 csrc src_off bs;
        Block.decrypt_into c csrc ~src_off dst ~dst_off;
        Alcotest.(check string)
          (name ^ " decrypt_into")
          (hex block)
          (hex (Bytes.sub_string dst dst_off bs))
      done)
    ciphers;
  (* the native fast path must bounds-check its raw-buffer ranges *)
  Alcotest.check_raises "aes-fast range check"
    (Invalid_argument "Aes_fast.encrypt_into: 16-byte block out of range")
    (fun () ->
      Block.encrypt_into aes_fast (Bytes.create 16) ~src_off:1 (Bytes.create 16)
        ~dst_off:0)

let test_modes_agree_across_paths () =
  (* a cipher with the fast path stripped exercises the generic fallback;
     every mode must produce identical bytes on both *)
  let stripped (c : Block.t) =
    Block.v ~name:(c.Block.name ^ "-stripped") ~block_size:c.Block.block_size
      ~encrypt:c.Block.encrypt ~decrypt:c.Block.decrypt ()
  in
  let rng = Rng.create ~seed:99L () in
  List.iter
    (fun (name, (c : Block.t)) ->
      let s = stripped c in
      let bs = c.Block.block_size in
      let iv = Rng.bytes rng bs in
      List.iter
        (fun nblocks ->
          let data = Rng.bytes rng (bs * nblocks) in
          let pairs =
            [
              ("ecb", Mode.ecb_encrypt c data, Mode.ecb_encrypt s data);
              ("ecb-dec", Mode.ecb_decrypt c data, Mode.ecb_decrypt s data);
              ("cbc", Mode.cbc_encrypt c ~iv data, Mode.cbc_encrypt s ~iv data);
              ("cbc-dec", Mode.cbc_decrypt c ~iv data, Mode.cbc_decrypt s ~iv data);
              ("ctr", Mode.ctr c ~nonce:iv data, Mode.ctr s ~nonce:iv data);
              ("ofb", Mode.ofb c ~iv data, Mode.ofb s ~iv data);
              ("cfb", Mode.cfb_encrypt c ~iv data, Mode.cfb_encrypt s ~iv data);
              ("cfb-dec", Mode.cfb_decrypt c ~iv data, Mode.cfb_decrypt s ~iv data);
            ]
          in
          List.iter
            (fun (m, a, b) ->
              Alcotest.(check string) (Printf.sprintf "%s %s %d" name m nblocks) (hex a) (hex b))
            pairs)
        [ 1; 2; 7 ])
    ciphers

let suites =
  [
    ( "bulk:kernel",
      [
        Alcotest.test_case "into agrees with string closures" `Quick test_into_matches_string;
        Alcotest.test_case "modes agree across paths" `Quick test_modes_agree_across_paths;
      ] );
  ]
