open Secdb_util

exception Io_error of { op : string; path : string; reason : string }
exception Crashed of string

type file = {
  path : string;
  pread : pos:int -> bytes -> off:int -> len:int -> int;
  pwrite : pos:int -> string -> off:int -> len:int -> int;
  fsync : unit -> unit;
  truncate : int -> unit;
  size : unit -> int;
  close : unit -> unit;
}

type mode = [ `Trunc | `Rw | `Read ]
type t = { name : string; open_file : path:string -> mode:mode -> file }

let io op path reason = raise (Io_error { op; path; reason })

(* --- passthrough backend ------------------------------------------------- *)

let unix : t =
  let open_file ~path ~mode =
    let flags =
      match mode with
      | `Trunc -> Unix.[ O_RDWR; O_CREAT; O_TRUNC ]
      | `Rw -> Unix.[ O_RDWR ]
      | `Read -> Unix.[ O_RDONLY ]
    in
    let guard op f =
      try f () with Unix.Unix_error (e, _, _) -> io op path (Unix.error_message e)
    in
    let fd = guard "open" (fun () -> Unix.openfile path flags 0o644) in
    {
      path;
      pread =
        (fun ~pos buf ~off ~len ->
          guard "pread"
            (fun () ->
              ignore (Unix.lseek fd pos Unix.SEEK_SET);
              Unix.read fd buf off len));
      pwrite =
        (fun ~pos s ~off ~len ->
          guard "pwrite"
            (fun () ->
              ignore (Unix.lseek fd pos Unix.SEEK_SET);
              Unix.write_substring fd s off len));
      fsync = (fun () -> guard "fsync" (fun () -> Unix.fsync fd));
      truncate = (fun n -> guard "truncate" (fun () -> Unix.ftruncate fd n));
      size = (fun () -> guard "size" (fun () -> (Unix.fstat fd).Unix.st_size));
      close = (fun () -> guard "close" (fun () -> Unix.close fd));
    }
  in
  { name = "unix"; open_file }

(* --- robust helpers ------------------------------------------------------ *)

let really_pread f ~pos buf ~off ~len =
  let rec go done_ =
    if done_ = len then len
    else
      let k = f.pread ~pos:(pos + done_) buf ~off:(off + done_) ~len:(len - done_) in
      if k = 0 then done_ else go (done_ + k)
  in
  go 0

let really_pwrite f ~pos s =
  let len = String.length s in
  let rec go done_ =
    if done_ < len then
      go (done_ + f.pwrite ~pos:(pos + done_) s ~off:done_ ~len:(len - done_))
  in
  go 0

let read_all t ~path =
  let f = t.open_file ~path ~mode:`Read in
  Fun.protect
    ~finally:(fun () -> f.close ())
    (fun () ->
      let n = f.size () in
      let buf = Bytes.create n in
      let got = really_pread f ~pos:0 buf ~off:0 ~len:n in
      Bytes.sub_string buf 0 got)

(* --- fault backend -------------------------------------------------------- *)

module Fault = struct
  (* One in-memory file: [data] is what reads observe (the OS view),
     [synced] is what would survive a crash (the platter view). *)
  type fstate = {
    mutable data : Bytes.t;
    mutable len : int;
    mutable synced : string;
  }

  type ctl = {
    tbl : (string, fstate) Hashtbl.t;
    rng : Rng.t;
    mutable writes : int;
    mutable reads : int;
    mutable fsyncs : int;
    mutable crash_at : int option;
    mutable is_crashed : bool;
    mutable short_reads : bool;
    mutable torn_writes : bool;
    mutable plan : ([ `Pread | `Pwrite | `Fsync ] * int * [ `EIO | `ENOSPC ]) list;
  }

  let make ?(seed = 0x7f5) () =
    {
      tbl = Hashtbl.create 4;
      rng = Rng.create ~seed:(Int64.of_int seed) ();
      writes = 0;
      reads = 0;
      fsyncs = 0;
      crash_at = None;
      is_crashed = false;
      short_reads = false;
      torn_writes = false;
      plan = [];
    }

  let crash_after_writes c n = c.crash_at <- Some (c.writes + n)
  let set_short_reads c b = c.short_reads <- b
  let set_torn_writes c b = c.torn_writes <- b
  let crashed c = c.is_crashed

  let fail_op c ~op ~after ~err =
    let count = match op with `Pread -> c.reads | `Pwrite -> c.writes | `Fsync -> c.fsyncs in
    c.plan <- (op, count + after, err) :: c.plan

  let check_plan c ~op ~count ~path =
    match List.find_opt (fun (o, n, _) -> o = op && n = count) c.plan with
    | None -> ()
    | Some ((_, _, err) as hit) ->
        c.plan <- List.filter (fun x -> x != hit) c.plan;
        let name = match op with `Pread -> "pread" | `Pwrite -> "pwrite" | `Fsync -> "fsync" in
        io name path (match err with `EIO -> "EIO (injected)" | `ENOSPC -> "ENOSPC (injected)")

  let ensure_capacity fs n =
    if Bytes.length fs.data < n then begin
      let cap = max 256 (max n (2 * Bytes.length fs.data)) in
      let d = Bytes.make cap '\000' in
      Bytes.blit fs.data 0 d 0 fs.len;
      fs.data <- d
    end

  let apply_write fs ~pos s ~off ~len =
    ensure_capacity fs (pos + len);
    if pos > fs.len then Bytes.fill fs.data fs.len (pos - fs.len) '\000';
    Bytes.blit_string s off fs.data pos len;
    fs.len <- max fs.len (pos + len)

  (* Crash: every file falls back to its last synced image; the in-flight
     write (if any) lands as a strict prefix on top of it. *)
  let crash c ~in_flight =
    Hashtbl.iter
      (fun _ fs ->
        fs.len <- String.length fs.synced;
        ensure_capacity fs fs.len;
        Bytes.blit_string fs.synced 0 fs.data 0 fs.len)
      c.tbl;
    (match in_flight with
    | None -> ()
    | Some (fs, pos, s, off, len) ->
        let torn = if len <= 1 then 0 else Rng.int c.rng len in
        if torn > 0 then apply_write fs ~pos s ~off ~len:torn);
    c.is_crashed <- true

  let guard c path = if c.is_crashed then raise (Crashed path)

  let lookup c path op =
    match Hashtbl.find_opt c.tbl path with
    | Some fs -> fs
    | None -> io op path "no such file (fault vfs)"

  let file_of c path fs =
    let pread ~pos buf ~off ~len =
      guard c path;
      c.reads <- c.reads + 1;
      check_plan c ~op:`Pread ~count:c.reads ~path;
      let avail = max 0 (min len (fs.len - pos)) in
      let n =
        if c.short_reads && avail > 1 then 1 + Rng.int c.rng (avail - 1) else avail
      in
      Bytes.blit fs.data pos buf off n;
      n
    in
    let pwrite ~pos s ~off ~len =
      guard c path;
      c.writes <- c.writes + 1;
      check_plan c ~op:`Pwrite ~count:c.writes ~path;
      (match c.crash_at with
      | Some n when c.writes >= n ->
          crash c ~in_flight:(Some (fs, pos, s, off, len));
          raise (Crashed path)
      | _ -> ());
      let n = if c.torn_writes && len > 1 then 1 + Rng.int c.rng (len - 1) else len in
      apply_write fs ~pos s ~off ~len:n;
      n
    in
    let fsync () =
      guard c path;
      c.fsyncs <- c.fsyncs + 1;
      check_plan c ~op:`Fsync ~count:c.fsyncs ~path;
      fs.synced <- Bytes.sub_string fs.data 0 fs.len
    in
    let truncate n =
      guard c path;
      if n < fs.len then fs.len <- n
      else begin
        ensure_capacity fs n;
        Bytes.fill fs.data fs.len (n - fs.len) '\000';
        fs.len <- n
      end
    in
    {
      path;
      pread;
      pwrite;
      fsync;
      truncate;
      size = (fun () -> guard c path; fs.len);
      close = ignore;  (* releasing an in-memory file is free, even post-crash *)
    }

  let vfs c =
    let open_file ~path ~mode =
      guard c path;
      let fs =
        match mode with
        | `Trunc ->
            let fs = { data = Bytes.create 256; len = 0; synced = "" } in
            Hashtbl.replace c.tbl path fs;
            fs
        | `Rw | `Read -> lookup c path "open"
      in
      file_of c path fs
    in
    { name = "fault"; open_file }

  let dump c ~path =
    let fs = lookup c path "dump" in
    Bytes.sub_string fs.data 0 fs.len

  let files c = Hashtbl.fold (fun k _ acc -> k :: acc) c.tbl []
end
