type into = bytes -> src_off:int -> bytes -> dst_off:int -> unit

type t = {
  name : string;
  block_size : int;
  encrypt : string -> string;
  decrypt : string -> string;
  encrypt_into : into option;
  decrypt_into : into option;
}

let v ~name ~block_size ~encrypt ~decrypt ?encrypt_into ?decrypt_into () =
  { name; block_size; encrypt; decrypt; encrypt_into; decrypt_into }

let check_block t s =
  if String.length s <> t.block_size then
    invalid_arg
      (Printf.sprintf "%s: expected %d-byte block, got %d bytes" t.name
         t.block_size (String.length s))

(* Reads the whole source block before writing, so src and dst may be the
   same buffer at the same offset. *)
let generic_into bs f src ~src_off dst ~dst_off =
  let out = f (Bytes.sub_string src src_off bs) in
  Bytes.blit_string out 0 dst dst_off bs

let encrypt_into t =
  match t.encrypt_into with
  | Some f -> f
  | None -> generic_into t.block_size t.encrypt

let decrypt_into t =
  match t.decrypt_into with
  | Some f -> f
  | None -> generic_into t.block_size t.decrypt

let zero_block t = String.make t.block_size '\000'
let map_name f t = { t with name = f t.name }
