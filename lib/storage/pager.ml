open Secdb_util
module Metrics = Secdb_obs.Metrics

let m_disk_reads = Metrics.counter "pager.disk_reads"
let m_disk_writes = Metrics.counter "pager.disk_writes"

let magic = "SECDBPG1"
let header_size = 20

type t = {
  vf : Vfs.file;
  psize : int;
  mutable npages : int; (* allocated pages, header excluded *)
  mutable dirty : bool; (* written or allocated since the last sync *)
  mutable closed : bool;
}

let check_open t = if t.closed then invalid_arg "Pager: file is closed"

let disk_write t page data =
  Vfs.really_pwrite t.vf ~pos:(page * t.psize) data;
  Metrics.incr m_disk_writes

(* bytes 16-19 are reserved and always zero *)
let write_header t =
  let b = Bytes.make t.psize '\000' in
  Bytes.blit_string magic 0 b 0 8;
  Xbytes.set_uint32_be b 8 t.psize;
  Xbytes.set_uint32_be b 12 t.npages;
  disk_write t 0 (Bytes.unsafe_to_string b)

let create ~path ?(page_size = 4096) ?(vfs = Vfs.unix) () =
  if page_size < 64 then invalid_arg "Pager.create: page size too small";
  let vf = vfs.Vfs.open_file ~path ~mode:`Trunc in
  let t = { vf; psize = page_size; npages = 0; dirty = true; closed = false } in
  write_header t;
  t

let open_file ~path ?(vfs = Vfs.unix) () =
  match vfs.Vfs.open_file ~path ~mode:`Rw with
  | exception Vfs.Io_error { reason; _ } -> Error ("Pager.open_file: " ^ reason)
  | vf -> (
      let fail msg =
        (try vf.Vfs.close () with Vfs.Io_error _ -> ());
        Error msg
      in
      let head = Bytes.create header_size in
      (* a single pread may return short even on a healthy file; loop *)
      match Vfs.really_pread vf ~pos:0 head ~off:0 ~len:header_size with
      | exception Vfs.Io_error { reason; _ } -> fail ("Pager.open_file: " ^ reason)
      | n ->
          if n < header_size || Bytes.sub_string head 0 8 <> magic then
            fail "Pager.open_file: not a pager file"
          else
            let hs = Bytes.to_string head in
            let psize = Xbytes.get_uint32_be hs 8 in
            let npages = Xbytes.get_uint32_be hs 12 in
            let reserved = Xbytes.get_uint32_be hs 16 in
            if psize < 64 then
              fail (Printf.sprintf "Pager.open_file: invalid page size %d" psize)
            else if npages < 0 then
              fail (Printf.sprintf "Pager.open_file: invalid page count %d" npages)
            else if reserved <> 0 then
              fail
                (Printf.sprintf "Pager.open_file: reserved header field is %d, not 0" reserved)
            else Ok { vf; psize; npages; dirty = false; closed = false })

let page_size t = t.psize
let page_count t = t.npages

let check_page t page op =
  if page < 1 || page > t.npages then
    invalid_arg (Printf.sprintf "Pager.%s: page %d out of range" op page)

let read t page =
  check_open t;
  check_page t page "read";
  let buf = Bytes.make t.psize '\000' in
  (* a short file reads as zeros beyond its end *)
  ignore (Vfs.really_pread t.vf ~pos:(page * t.psize) buf ~off:0 ~len:t.psize);
  Metrics.incr m_disk_reads;
  Bytes.unsafe_to_string buf

let write t page data =
  check_open t;
  check_page t page "write";
  let len = String.length data in
  if len > t.psize then invalid_arg "Pager.write: data exceeds the page size";
  t.dirty <- true;
  disk_write t page (if len = t.psize then data else data ^ String.make (t.psize - len) '\000')

let alloc t =
  check_open t;
  t.dirty <- true;
  t.npages <- t.npages + 1;
  t.npages

let sync t =
  check_open t;
  write_header t;
  t.vf.Vfs.fsync ();
  t.dirty <- false

let close t =
  if not t.closed then begin
    (* a pager only read since open or the last sync leaves the file alone *)
    if t.dirty then sync t;
    t.vf.Vfs.close ();
    t.closed <- true
  end
