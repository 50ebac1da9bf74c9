(** Virtual file system: the seam between the storage engine and the disk.

    Every byte {!Pager}, {!Blob_store} and the oplog persist goes through a
    [Vfs.file], so one abstraction point decides whether the bytes reach a
    real file descriptor ({!unix}) or an in-memory disk that injects the
    failures real disks produce ({!Fault}): torn writes that persist only a
    prefix of a sector, short reads, [EIO]/[ENOSPC] at a chosen operation,
    and crash points that freeze the durable image mid-workload.

    The fault model is deliberately adversarial but deterministic: at a
    crash, data fsynced before the crash survives; writes since the last
    fsync are lost; the write in flight at the crash point survives as a
    seed-chosen {e strict prefix} (a torn sector).  That is the contract
    the recovery paths ([Oplog.recover], [Fsck.run]) are tested against. *)

exception Io_error of { op : string; path : string; reason : string }
(** An injected or real I/O failure ([EIO], [ENOSPC], ...). *)

exception Crashed of string
(** Raised by every operation on a fault VFS once its crash point has
    fired; the argument is the path of the file being touched. *)

type file = {
  path : string;
  pread : pos:int -> bytes -> off:int -> len:int -> int;
      (** Read up to [len] bytes at absolute [pos] into [buf] at [off];
          returns the count read, 0 at end of file.  May return short. *)
  pwrite : pos:int -> string -> off:int -> len:int -> int;
      (** Write up to [len] bytes at absolute [pos]; returns the count
          written.  May return short. *)
  fsync : unit -> unit;  (** Make every completed write durable. *)
  truncate : int -> unit;  (** Set the file length (zero-fill on grow). *)
  size : unit -> int;
  close : unit -> unit;
}

type mode = [ `Trunc  (** create or truncate, read-write *)
            | `Rw  (** existing file, read-write *)
            | `Read  (** existing file, read-only *) ]

type t = { name : string; open_file : path:string -> mode:mode -> file }
(** A backend. [open_file] raises {!Io_error} when the file cannot be
    opened (e.g. [`Rw] on a missing path). *)

val unix : t
(** Passthrough to the real file system. *)

(** {2 Robust helpers}

    [pread]/[pwrite] may return short (and the fault backend makes sure
    they do); these loop until done. *)

val really_pread : file -> pos:int -> bytes -> off:int -> len:int -> int
(** Read until [len] bytes or end of file; returns the count read. *)

val really_pwrite : file -> pos:int -> string -> unit
(** Write the whole string, looping over short writes. *)

val read_all : t -> path:string -> string
(** Open [`Read], read the whole file, close.  Raises {!Io_error}. *)

(** {2 Fault injection} *)

module Fault : sig
  type ctl
  (** An in-memory disk plus its fault plan.  All files opened through
      {!vfs} live on the same disk and share one crash point. *)

  val make : ?seed:int -> unit -> ctl
  (** Fresh empty disk; [seed] drives every nondeterministic choice
      (torn-write lengths, short-read lengths), so a failing run is
      replayed exactly by its seed. *)

  val vfs : ctl -> t

  (** {3 Programming faults} *)

  val crash_after_writes : ctl -> int -> unit
  (** Arm the crash point: the [n]-th {e subsequent} [pwrite] tears (a
      seed-chosen strict prefix of it persists), unsynced data is dropped,
      and {!Crashed} is raised from that write and every operation after
      it. *)

  val fail_op : ctl -> op:[ `Pread | `Pwrite | `Fsync ] -> after:int -> err:[ `EIO | `ENOSPC ] -> unit
  (** Arm a one-shot error: the [after]-th subsequent operation of that
      kind raises {!Io_error} without touching the disk. *)

  val set_short_reads : ctl -> bool -> unit
  (** Make every multi-byte [pread] return a seed-chosen strict prefix. *)

  val set_torn_writes : ctl -> bool -> unit
  (** Make every multi-byte [pwrite] apply and report a seed-chosen
      strict prefix (no crash; callers must loop). *)

  (** {3 Observation} *)

  val crashed : ctl -> bool

  val dump : ctl -> path:string -> string
  (** The durable image of [path]: after a crash, exactly what survived;
      before one, the current contents.  Raises {!Io_error} if the file
      was never created. *)

  val files : ctl -> string list
end
