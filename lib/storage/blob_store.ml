open Secdb_util
module Metrics = Secdb_obs.Metrics

let m_stores = Metrics.counter "blob.stores"
let m_loads = Metrics.counter "blob.loads"
let m_pages_read = Metrics.counter "blob.pages_read"
let m_pages_written = Metrics.counter "blob.pages_written"
let m_bytes_stored = Metrics.counter "blob.bytes_stored"
let m_bytes_loaded = Metrics.counter "blob.bytes_loaded"

type t = { pager : Pager.t }

type chain_error = { page : int; reason : string }

let chain_error_to_string { page; reason } = Printf.sprintf "blob: page %d: %s" page reason

let attach pager = { pager }

let header_size = 12 (* 8-byte next + 4-byte length *)
let payload_capacity t = Pager.page_size t.pager - header_size

let encode_page ~next ~chunk =
  Xbytes.int_to_be_string ~width:8 next ^ Xbytes.int_to_be_string ~width:4 (String.length chunk)
  ^ chunk

let decode_page t page =
  if page < 1 || page > Pager.page_count t.pager then
    Error { page; reason = "page id out of range" }
  else begin
    Metrics.incr m_pages_read;
    let raw = Pager.read t.pager page in
    match Xbytes.be_string_to_int (String.sub raw 0 8) with
    | exception Invalid_argument _ ->
        (* garbage too large for an int: corrupt, not a crash *)
        Error { page; reason = "corrupt next pointer (overflow)" }
    | next ->
        let len = Xbytes.be_string_to_int (String.sub raw 8 4) in
        if len > payload_capacity t then
          Error
            { page; reason = Printf.sprintf "corrupt header (length %d exceeds capacity)" len }
        else Ok (next, String.sub raw header_size len)
  end

(* Walk a chain carrying an explicit step count: a chain can never be
   longer than the number of pages ever allocated, so exceeding that is a
   cycle (or a pointer into one), reported against the offending page. *)
let fold_chain t id ~f ~init =
  let limit = Pager.page_count t.pager in
  let rec walk page acc steps =
    if page = 0 then Ok acc
    else if steps >= limit then
      Error { page; reason = Printf.sprintf "chain exceeds %d pages (cycle?)" limit }
    else
      match decode_page t page with
      | Error e -> Error e
      | Ok (next, chunk) -> walk next (f acc page chunk) (steps + 1)
  in
  walk id init 0

let chunks t data =
  let cap = payload_capacity t in
  if data = "" then [ "" ] else Xbytes.blocks cap data

(* allocate one page per chunk and link each to the next; [chunks] is
   never empty, so the head exists *)
let write_chain t chunks =
  let pages = List.map (fun _ -> Pager.alloc t.pager) chunks in
  List.iter2
    (fun (page, next) chunk -> Pager.write t.pager page (encode_page ~next ~chunk))
    (List.combine pages (List.tl pages @ [ 0 ]))
    chunks;
  Metrics.add m_pages_written (List.length pages);
  List.hd pages

let store t data =
  Metrics.incr m_stores;
  Metrics.add m_bytes_stored (String.length data);
  write_chain t (chunks t data)

let pages_of t id =
  Result.map List.rev (fold_chain t id ~init:[] ~f:(fun acc page _ -> page :: acc))

let load t id =
  Metrics.incr m_loads;
  let r =
    Result.map
      (fun acc -> String.concat "" (List.rev acc))
      (fold_chain t id ~init:[] ~f:(fun acc _ chunk -> chunk :: acc))
  in
  (match r with Ok data -> Metrics.add m_bytes_loaded (String.length data) | Error _ -> ());
  r
