module Metrics = Secdb_obs.Metrics
module Trace = Secdb_obs.Trace
module Obs = Secdb_obs.Obs
module Rng = Secdb_util.Rng
module Xbytes = Secdb_util.Xbytes
module Shard = Secdb_db.Shard
module Ast = Secdb_sql.Ast
module Parser = Secdb_sql.Parser
module Engine = Secdb_sql.Engine
module Snapshot = Secdb_sql.Snapshot

type config = {
  auth_key : string;
  max_frame : int;
  max_inflight : int;
  read_timeout : float;
  shards : int;
}

(* seconds a single frame write may take *)
let write_timeout = 30.

let config ?(max_frame = Wire.default_max_frame) ?(max_inflight = 64) ?(read_timeout = 30.)
    ?shards ~auth_key () =
  let shards = match shards with Some n -> n | None -> Domain.recommended_domain_count () in
  if String.length auth_key < 16 then invalid_arg "Server.config: auth key shorter than 16 bytes";
  if max_frame < 64 then invalid_arg "Server.config: max_frame too small for a handshake";
  if max_inflight < 1 then invalid_arg "Server.config: max_inflight must be positive";
  (* a deadline already past drops every client before its handshake; the
     comparison is written so that nan fails it too *)
  if not (read_timeout > 0.) then invalid_arg "Server.config: read_timeout must be positive";
  if shards < 1 then invalid_arg "Server.config: shards must be positive";
  { auth_key; max_frame; max_inflight; read_timeout; shards }

(* Registered per server (not at module load) so a process that never
   serves — `secdb stats`, say — keeps its metric registry unchanged. *)
type metrics = {
  m_bytes_in : Metrics.counter;
  m_bytes_out : Metrics.counter;
  m_auth_failures : Metrics.counter;
  m_conn_total : Metrics.counter;
  g_conns : Metrics.gauge;
  m_rpc : (string * Metrics.counter) list;
  m_rpc_errors : Metrics.counter;
  h_rpc : (string * Metrics.histogram) list;
  m_snap_hits : Metrics.counter;
  m_snap_misses : Metrics.counter;
}

let op_names =
  [
    "ping";
    "stats";
    "sql";
    "repl_pull";
    "repl_root";
  ]

let make_metrics () =
  {
    m_bytes_in = Metrics.counter "net.bytes_in";
    m_bytes_out = Metrics.counter "net.bytes_out";
    m_auth_failures = Metrics.counter "net.auth_failures";
    m_conn_total = Metrics.counter "net.connections_total";
    g_conns = Metrics.gauge "net.connections";
    m_rpc = List.map (fun op -> (op, Metrics.counter ~labels:[ ("op", op) ] "net.rpc")) op_names;
    m_rpc_errors = Metrics.counter "net.rpc_errors";
    h_rpc =
      List.map
        (fun op -> (op, Metrics.histogram ~labels:[ ("op", op) ] "net.rpc_latency"))
        op_names;
    m_snap_hits = Metrics.counter "shard.snapshot_hits";
    m_snap_misses = Metrics.counter "shard.snapshot_misses";
  }

(* --- bounded response queue (the per-connection in-flight cap) ------------- *)

module Bqueue = struct
  type 'a t = {
    q : 'a Queue.t;
    cap : int;
    mu : Mutex.t;
    not_full : Condition.t;
    not_empty : Condition.t;
    mutable closed : bool;
  }

  let create cap =
    {
      q = Queue.create ();
      cap;
      mu = Mutex.create ();
      not_full = Condition.create ();
      not_empty = Condition.create ();
      closed = false;
    }

  (* Blocks while the queue is full: with the writer thread draining at
     the peer's read speed, this is exactly TCP backpressure on the
     pipelining client. *)
  let push t x =
    Mutex.lock t.mu;
    while Queue.length t.q >= t.cap && not t.closed do
      Condition.wait t.not_full t.mu
    done;
    let accepted = not t.closed in
    if accepted then begin
      Queue.push x t.q;
      Condition.signal t.not_empty
    end;
    Mutex.unlock t.mu;
    accepted

  let pop t =
    Mutex.lock t.mu;
    while Queue.is_empty t.q && not t.closed do
      Condition.wait t.not_empty t.mu
    done;
    let item = if Queue.is_empty t.q then None else Some (Queue.pop t.q) in
    Condition.signal t.not_full;
    Mutex.unlock t.mu;
    item

  let close t =
    Mutex.lock t.mu;
    t.closed <- true;
    Condition.broadcast t.not_empty;
    Condition.broadcast t.not_full;
    Mutex.unlock t.mu
end

(* --- dispatch ---------------------------------------------------------------- *)

(* the one exception -> error-code mapping, shared by the in-process
   dispatch and the shard executors, so both answer byte-identically *)
let guard f : (Wire.resp, Wire.err_code * string) result =
  try f () with
  | Not_found -> Error (Wire.App, "no such table, column or index")
  | Invalid_argument e -> Error (Wire.App, e)
  | Failure e -> Error (Wire.App, e)
  | Secdb.Keyring.Session_closed -> Error (Wire.App, "session closed")
  | e -> Error (Wire.Server_error, Printexc.to_string e)

let outcome = function Ok o -> Ok (Wire.Outcome o) | Error e -> Error (Wire.App, e)

let dispatch db (req : Wire.req) =
  guard @@ fun () ->
  match req with
  | Wire.Ping payload -> Ok (Wire.Pong payload)
  | Wire.Stats fmt ->
      let snap = Metrics.snapshot () in
      Ok
        (Wire.Stats_dump
           (match fmt with `Text -> Metrics.to_text snap | `Json -> Metrics.to_json snap))
  | Wire.Sql src -> outcome (Engine.exec db src)
  (* replication requests need the serving layer's role and shard map;
     the single-db reference dispatch has neither *)
  | Wire.Repl_pull _ -> Error (Wire.App, "replication pull needs a serving primary")
  | Wire.Repl_root -> Error (Wire.App, "attestation needs a serving node")

(* --- shards -------------------------------------------------------------------

   Every table lives in exactly one shard ({!Shard.key_shard} over its
   name), and each shard owns a full {!Secdb.Encdb.t} — tables and
   indexes — plus one executor domain.  Connection readers route a request
   to its shard and hand the dispatch to that executor, so requests on
   different shards run in true parallel while a shard's own requests
   stay serialised (which is what keeps pipelined results byte-identical
   to the in-process API).

   After every mutation the executor folds the resulting
   {!Secdb.Encdb.change}s into an immutable {!Snapshot.t} and publishes
   it with one atomic store — the read fast path: point SELECTs are
   answered by reader threads straight from the last published snapshot,
   never blocking behind a writer.  Publication happens before the
   response is signalled, so a connection always reads its own writes. *)

type shard_state = {
  sdb : Secdb.Encdb.t;
  pending : Secdb.Encdb.change list ref;  (* filled by the on_change hook *)
  snap : Snapshot.t Atomic.t;
  jobs : (unit -> unit) Bqueue.t;
}

let make_shard db_of i =
  let sdb = db_of i in
  let pending = ref [] in
  Secdb.Encdb.set_on_change sdb (Some (fun ch -> pending := ch :: !pending));
  {
    sdb;
    pending;
    snap = Atomic.make (Snapshot.of_db sdb);
    jobs = Bqueue.create 64;
  }

let executor shards i =
  let sh = Shard.get shards i in
  let rec loop () =
    match Bqueue.pop sh.jobs with
    | None -> ()
    | Some job ->
        Shard.with_shard shards i (fun _ -> job ());
        loop ()
  in
  loop ()

(* Run a job on the shard's executor and wait for the result.  The
   change stream is offered to [on_changes] (the primary's oplog append)
   and the snapshot republished before the completion signal — so by the
   time a mutation is acked it is logged, folded and visible. *)
let submit_job ?(on_changes = fun (_ : Secdb.Encdb.change list) -> ()) sh f =
  let mu = Mutex.create () in
  let cond = Condition.create () in
  let result = ref None in
  let job () =
    let r = f () in
    (match List.rev !(sh.pending) with
    | [] -> ()
    | changes ->
        sh.pending := [];
        on_changes changes;
        Atomic.set sh.snap (List.fold_left Snapshot.apply (Atomic.get sh.snap) changes));
    Mutex.lock mu;
    result := Some r;
    Condition.signal cond;
    Mutex.unlock mu
  in
  if Bqueue.push sh.jobs job then begin
    Mutex.lock mu;
    while !result = None do
      Condition.wait cond mu
    done;
    Mutex.unlock mu;
    Ok (Option.get !result)
  end
  else Error `Draining

(* execute an already-parsed statement on the shard's executor *)
let submit ?on_changes sh stmt =
  match
    submit_job ?on_changes sh (fun () -> guard (fun () -> outcome (Engine.exec_stmt sh.sdb stmt)))
  with
  | Ok r -> r
  | Error `Draining -> Error (Wire.Server_error, "server draining")

(* --- server ------------------------------------------------------------------- *)

(* What this node is in a replication topology.  A [Primary] appends
   every observed mutation to its oplog writer (inside the executor job,
   before the response is signalled, so an acked write is a logged
   write).  A [Replica] rejects mutations from clients — its only write
   path is {!apply_op}, fed by the pull loop — and serves reads from the
   same snapshot machinery as any other node. *)
type role =
  | Standalone
  | Primary of Secdb.Oplog.writer
  | Replica of { initial_applied : int }

type t = {
  cfg : config;
  role : role;
  repl_mu : Mutex.t;  (* serialises oplog appends and reads across shards *)
  applied : int Atomic.t;  (* ops reflected in the served state *)
  mutable repl_error : string option;  (* first oplog failure, under repl_mu *)
  shards : shard_state Shard.t;
  doms : unit Domain.t array;
  listen_fd : Unix.file_descr;
  address : Wire.addr;
  unix_path : string option;
  stop_flag : bool Atomic.t;
  lifecycle_mu : Mutex.t;
  drained_cond : Condition.t;
  mutable drained : bool;
  mutable running : bool;
  mutable accept_thread : Thread.t option;
  conn_mu : Mutex.t;
  conns : (int, Thread.t) Hashtbl.t;
  mutable active : int;
  rng : Rng.t;
  rng_mu : Mutex.t;
  m : metrics;
}

let default_seed () =
  Int64.logxor
    (Int64.of_float (Unix.gettimeofday () *. 1e6))
    (Int64.of_int (Unix.getpid () * 0x9e3779b9))

let create ?seed ?(role = Standalone) ~config:(cfg : config) ~db address =
  let seed = match seed with Some s -> s | None -> default_seed () in
  try
    let fd =
      match address with
      | Wire.Unix_sock path ->
          if Sys.file_exists path then Unix.unlink path;
          let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.bind fd (Unix.ADDR_UNIX path);
          fd
      | Wire.Tcp _ ->
          let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
          Unix.setsockopt fd Unix.SO_REUSEADDR true;
          Unix.bind fd (Wire.sockaddr_of_addr address);
          fd
    in
    Unix.listen fd 64;
    let address =
      (* report the kernel-chosen port when asked for port 0 *)
      match (address, Unix.getsockname fd) with
      | Wire.Tcp (host, 0), Unix.ADDR_INET (_, port) -> Wire.Tcp (host, port)
      | _ -> address
    in
    let shards = Shard.create ~shards:cfg.shards (make_shard db) in
    let doms = Array.init cfg.shards (fun i -> Domain.spawn (fun () -> executor shards i)) in
    Ok
      {
        cfg;
        role;
        repl_mu = Mutex.create ();
        applied =
          Atomic.make
            (match role with
            | Standalone -> 0
            | Primary w -> Secdb.Oplog.count w
            | Replica { initial_applied } -> initial_applied);
        repl_error = None;
        shards;
        doms;
        listen_fd = fd;
        address;
        unix_path = (match address with Wire.Unix_sock p -> Some p | Wire.Tcp _ -> None);
        stop_flag = Atomic.make false;
        lifecycle_mu = Mutex.create ();
        drained_cond = Condition.create ();
        drained = false;
        running = false;
        accept_thread = None;
        conn_mu = Mutex.create ();
        conns = Hashtbl.create 16;
        active = 0;
        rng = Rng.create ~seed ();
        rng_mu = Mutex.create ();
        m = make_metrics ();
      }
  with Unix.Unix_error (e, fn, arg) ->
    Error
      (Printf.sprintf "cannot listen on %s: %s (%s %s)" (Wire.addr_to_string address)
         (Unix.error_message e) fn arg)

let addr t = t.address
let stopping t () = Atomic.get t.stop_flag

let fresh_nonce t =
  Mutex.lock t.rng_mu;
  let n = Rng.bytes t.rng 16 in
  Mutex.unlock t.rng_mu;
  n

(* The primary's oplog hook, run inside the executor job that performed
   the mutation — per-shard apply order and log order therefore agree,
   which is what makes a replica's replay byte-identical.  After a first
   append failure the log stops growing and pulls report the error;
   serving continues (the local state is still good), replication does
   not silently diverge. *)
let log_changes t changes =
  match t.role with
  | Primary w ->
      Mutex.lock t.repl_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.repl_mu)
        (fun () ->
          match t.repl_error with
          | Some _ -> ()
          | None -> (
              try
                List.iter (fun ch -> ignore (Secdb.Oplog.append w (Repl.op_of_change ch))) changes;
                Atomic.set t.applied (Secdb.Oplog.count w)
              with e -> t.repl_error <- Some (Printexc.to_string e)))
  | Standalone | Replica _ -> ()

let is_replica t = match t.role with Replica _ -> true | Standalone | Primary _ -> false

let read_only_reject = Error (Wire.App, "read-only replica: mutations go to the primary")

(* Route one request.  Ping and Stats touch no table — answered inline.
   SQL parses once: the statement names its table, the table names its
   shard; a point SELECT is tried against the shard's published snapshot
   first (lock-free), everything else rides the shard's executor.  On a
   replica every mutating statement is rejected before it reaches a
   shard. *)
let exec_routed t (req : Wire.req) =
  let shard_of table = Shard.get t.shards (Shard.key_shard t.shards table) in
  let submit sh stmt = submit ~on_changes:(log_changes t) sh stmt in
  match req with
  | Wire.Ping _ | Wire.Stats _ -> dispatch (Shard.get t.shards 0).sdb req
  | Wire.Repl_pull { ack; max } -> (
      match t.role with
      | Primary w ->
          Mutex.lock t.repl_mu;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock t.repl_mu)
            (fun () ->
              match t.repl_error with
              | Some e -> Error (Wire.Server_error, "oplog failed: " ^ e)
              | None ->
                  if ack < 0 || max < 0 then Error (Wire.Bad_payload, "negative pull bounds")
                  else
                    let max = min max 1024 (* bound one response's size *) in
                    Ok
                      (Wire.Repl_records
                         {
                           durable = Secdb.Oplog.durable w;
                           records = Secdb.Oplog.read_sealed w ~from:ack ~max;
                         }))
      | Standalone | Replica _ -> Error (Wire.App, "not a primary"))
  | Wire.Repl_root ->
      (* all shard locks held: no executor is mid-mutation, so the
         digests and the applied count describe one consistent state *)
      let applied = ref 0 in
      let digests =
        Shard.with_all t.shards (fun i sh ->
            if i = 0 then applied := Atomic.get t.applied;
            Secdb.Encdb.digest sh.sdb)
      in
      Ok (Wire.Root { applied = !applied; root = Repl.combined_root digests })
  | Wire.Sql stmt_src -> (
      match Parser.parse stmt_src with
      | Error e -> Error (Wire.App, e)
      | Ok stmt -> (
          match stmt with
          | stmt when is_replica t && not (match stmt with Ast.Select _ | Ast.Explain _ -> true | _ -> false)
            ->
              read_only_reject
          | _ when
              (* every table a statement touches must live on one shard: a
                 JOIN spanning shards has no single executor that owns both
                 tables, so refuse it structurally instead of answering
                 from half the data *)
              List.length
                (List.sort_uniq compare
                   (List.map (Shard.key_shard t.shards) (Ast.stmt_tables stmt)))
              > 1 ->
              Error
                ( Wire.App,
                  Printf.sprintf "cross-shard JOIN: tables {%s} live on different shards"
                    (String.concat ", " (Ast.stmt_tables stmt)) )
          | _ -> (
              let sh = shard_of (Ast.stmt_table stmt) in
              match Engine.exec_snapshot (Atomic.get sh.snap) stmt with
              | Some r ->
                  Metrics.incr t.m.m_snap_hits;
                  outcome r
              | None ->
                  (match stmt with Ast.Select _ -> Metrics.incr t.m.m_snap_misses | _ -> ());
                  submit sh stmt)))

(* The replica's single write path: apply one pulled (already verified)
   op on the shard executor it routes to, exactly as the primary's own
   mutations ride theirs. *)
let apply_op t op =
  let sh = Shard.get t.shards (Shard.key_shard t.shards (Secdb.Oplog.op_table op)) in
  match submit_job sh (fun () -> Secdb.Oplog.apply sh.sdb op) with
  | Ok (Ok ()) ->
      Atomic.incr t.applied;
      Ok ()
  | Ok (Error _ as e) -> e
  | Error `Draining -> Error "server draining"

let observe_in t frame = if Obs.on () then Metrics.add t.m.m_bytes_in (Wire.frame_size frame)
let observe_out t frame = if Obs.on () then Metrics.add t.m.m_bytes_out (Wire.frame_size frame)

let send t fd frame =
  observe_out t frame;
  Wire.write_frame ~timeout:write_timeout fd frame

(* Challenge–response over the fresh connection.  Returns the per-session
   request-MAC key; the master key plays no part here — both sides work
   from the derived [auth_key]. *)
let handshake t fd =
  let reject code message =
    ignore (send t fd (Wire.Conn_error { code; message }));
    Error ()
  in
  match
    Wire.read_frame ~stop:(stopping t) ~max_frame:t.cfg.max_frame ~timeout:t.cfg.read_timeout fd
  with
  | Error (`Too_large n) -> reject Wire.Too_large (Printf.sprintf "hello frame of %d bytes" n)
  | Error (`Bad_frame e) -> reject Wire.Frame e
  | Error (`Eof | `Timeout | `Stopped) -> Error ()
  | Ok (Wire.Hello { version; nonce = client_nonce }) -> (
      if version <> Wire.protocol_version then
        reject Wire.Frame (Printf.sprintf "unsupported protocol version %d" version)
      else
        let server_nonce = fresh_nonce t in
        match send t fd (Wire.Challenge { version = Wire.protocol_version; nonce = server_nonce }) with
        | Error _ -> Error ()
        | Ok () -> (
            match
              Wire.read_frame ~stop:(stopping t) ~max_frame:t.cfg.max_frame
                ~timeout:t.cfg.read_timeout fd
            with
            | Ok (Wire.Auth mac) ->
                let expected =
                  Wire.handshake_mac ~auth_key:t.cfg.auth_key ~client_nonce ~server_nonce
                in
                if Xbytes.constant_time_equal mac expected then
                  match
                    send t fd
                      (Wire.Auth_ok
                         (Wire.accept_mac ~auth_key:t.cfg.auth_key ~client_nonce ~server_nonce))
                  with
                  | Ok () ->
                      Ok (Wire.session_key ~auth_key:t.cfg.auth_key ~client_nonce ~server_nonce)
                  | Error _ -> Error ()
                else begin
                  Metrics.incr t.m.m_auth_failures;
                  reject Wire.Auth "handshake MAC mismatch"
                end
            | Ok _ -> reject Wire.Frame "expected an auth frame"
            | Error (`Too_large n) ->
                reject Wire.Too_large (Printf.sprintf "auth frame of %d bytes" n)
            | Error (`Bad_frame e) -> reject Wire.Frame e
            | Error (`Eof | `Timeout | `Stopped) -> Error ()))
  | Ok _ -> reject Wire.Frame "expected a hello frame"

let handle_request t session_mac (frame : Wire.frame) =
  match frame with
  | Wire.Request { id; body; mac } ->
      let expected = Wire.request_mac_keyed session_mac ~id ~body in
      if not (Xbytes.constant_time_equal mac expected) then begin
        Metrics.incr t.m.m_auth_failures;
        `Reply (Wire.Response { id; result = Error (Wire.Auth, "request MAC mismatch") })
      end
      else begin
        match Wire.decode_req body with
        | Error e ->
            Metrics.incr t.m.m_rpc_errors;
            `Reply (Wire.Response { id; result = Error (Wire.Bad_payload, e) })
        | Ok req ->
            let op = Wire.op_name req in
            (match List.assoc_opt op t.m.m_rpc with Some c -> Metrics.incr c | None -> ());
            let hist = List.assoc_opt op t.m.h_rpc in
            let result =
              Trace.with_span ~attrs:[ ("op", op) ] ?hist "net.dispatch" (fun () ->
                  exec_routed t req)
            in
            (match result with Error _ -> Metrics.incr t.m.m_rpc_errors | Ok _ -> ());
            `Reply
              (Wire.Response
                 { id; result = Result.map Wire.encode_resp result })
      end
  | _ -> `Close_after (Wire.Conn_error { code = Wire.Frame; message = "expected a request frame" })

let set_conn_gauge t delta =
  Mutex.lock t.conn_mu;
  t.active <- t.active + delta;
  Metrics.set t.m.g_conns t.active;
  Mutex.unlock t.conn_mu

let serve_conn t fd =
  Metrics.incr t.m.m_conn_total;
  set_conn_gauge t 1;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      set_conn_gauge t (-1))
    (fun () ->
      match handshake t fd with
      | Error () -> ()
      | Ok session_key ->
          (* hoisted for the connection: every request verifies under the
             same keyed MAC *)
          let session_mac = Wire.session_mac ~session_key in
          let queue = Bqueue.create t.cfg.max_inflight in
          let dead = Atomic.make false in
          let writer =
            Thread.create
              (fun () ->
                let rec drain () =
                  match Bqueue.pop queue with
                  | None -> ()
                  | Some frame ->
                      if not (Atomic.get dead) then begin
                        observe_out t frame;
                        match
                          Wire.write_frame
                            ~stop:(fun () -> Atomic.get dead)
                            ~timeout:write_timeout fd frame
                        with
                        | Ok () -> ()
                        | Error _ -> Atomic.set dead true
                      end;
                      drain ()
                in
                drain ())
              ()
          in
          let rec loop () =
            if Atomic.get dead then ()
            else
              match
                Wire.read_frame ~stop:(stopping t) ~max_frame:t.cfg.max_frame
                  ~timeout:t.cfg.read_timeout fd
              with
              | Error (`Eof | `Timeout | `Stopped) -> ()
              | Error (`Too_large n) ->
                  ignore
                    (Bqueue.push queue
                       (Wire.Conn_error
                          { code = Wire.Too_large; message = Printf.sprintf "frame of %d bytes" n }))
              | Error (`Bad_frame e) ->
                  ignore (Bqueue.push queue (Wire.Conn_error { code = Wire.Frame; message = e }))
              | Ok frame -> (
                  observe_in t frame;
                  match handle_request t session_mac frame with
                  | `Reply reply ->
                      if Bqueue.push queue reply then loop ()
                  | `Close_after reply -> ignore (Bqueue.push queue reply))
          in
          loop ();
          Bqueue.close queue;
          Thread.join writer)

(* --- accept loop and lifecycle ------------------------------------------------ *)

let wait_readable ~stop fd =
  let rec go () =
    if stop () then false
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | [], _, _ -> go ()
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> false
  in
  go ()

let run t =
  Mutex.lock t.lifecycle_mu;
  if t.running || t.drained then begin
    Mutex.unlock t.lifecycle_mu;
    invalid_arg "Server.run: already running or stopped"
  end;
  t.running <- true;
  Mutex.unlock t.lifecycle_mu;
  let rec accept_loop () =
    if wait_readable ~stop:(stopping t) t.listen_fd then begin
      (match Unix.accept t.listen_fd with
      | fd, _ ->
          let th = Thread.create (fun () -> serve_conn t fd) () in
          Mutex.lock t.conn_mu;
          Hashtbl.replace t.conns (Thread.id th) th;
          Mutex.unlock t.conn_mu
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> Atomic.set t.stop_flag true);
      accept_loop ()
    end
  in
  accept_loop ();
  (* drain: no new connections; every worker notices the stop flag within
     one select slice and finishes its current request first *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.unix_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
  | None -> ());
  let workers =
    Mutex.lock t.conn_mu;
    let ws = Hashtbl.fold (fun _ th acc -> th :: acc) t.conns [] in
    Mutex.unlock t.conn_mu;
    ws
  in
  List.iter Thread.join workers;
  (* no submitter left: close the shard queues and park the executors *)
  Shard.iter t.shards (fun _ sh -> Bqueue.close sh.jobs);
  Array.iter Domain.join t.doms;
  Mutex.lock t.lifecycle_mu;
  t.running <- false;
  t.drained <- true;
  Condition.broadcast t.drained_cond;
  Mutex.unlock t.lifecycle_mu

let start t =
  let th = Thread.create (fun () -> run t) () in
  Mutex.lock t.lifecycle_mu;
  t.accept_thread <- Some th;
  Mutex.unlock t.lifecycle_mu

let request_stop t = Atomic.set t.stop_flag true

let stop t =
  request_stop t;
  Mutex.lock t.lifecycle_mu;
  let started = t.running || t.accept_thread <> None || t.drained in
  Mutex.unlock t.lifecycle_mu;
  if not started then begin
    (* never ran: park the executors and release the socket *)
    Shard.iter t.shards (fun _ sh -> Bqueue.close sh.jobs);
    Array.iter Domain.join t.doms;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.unix_path with
    | Some p -> ( try Unix.unlink p with Unix.Unix_error _ | Sys_error _ -> ())
    | None -> ());
    Mutex.lock t.lifecycle_mu;
    t.drained <- true;
    Mutex.unlock t.lifecycle_mu
  end
  else begin
    Mutex.lock t.lifecycle_mu;
    while not t.drained do
      Condition.wait t.drained_cond t.lifecycle_mu
    done;
    Mutex.unlock t.lifecycle_mu;
    match t.accept_thread with Some th -> Thread.join th | None -> ()
  end
