(** Page-based file storage, written straight through.

    The threat model's adversary owns "the machine or storage system
    holding the actual data"; this module is that storage system: a single
    file of fixed-size pages.  Every {!write} goes to the file at once and
    every {!read} comes from it; there is no buffer pool and no free list.
    [Encdb.save] writes a fresh image once and [Encdb.load] reads it back
    once, so a page is never rewritten or re-read.

    Layout: page 0 is the header (magic, page size, page count, and four
    reserved bytes that are always zero — they once held a free-list
    head).  All page ids are > 0.

    All I/O goes through a {!Vfs} backend (default {!Vfs.unix}), so the
    crash-matrix tests can run the same code against an injected-fault
    disk.  The pager is not journalled: the header's page count is
    written at {!create} and again at {!sync}/{!close}, a crash in
    between can lose or tear pages, and [secdb fsck] ({!Fsck}) is the tool
    that assesses a surviving image. *)

type t

val magic : string
(** First 8 bytes of every pager file. *)

val header_size : int
(** Bytes of page 0 that carry the header fields (20). *)

val create : path:string -> ?page_size:int -> ?vfs:Vfs.t -> unit -> t
(** Create (truncating any existing file).  [page_size] defaults to 4096
    bytes (min 64). *)

val open_file : path:string -> ?vfs:Vfs.t -> unit -> (t, string) result
(** Open an existing pager file; the page size comes from the header.
    Reads the header with a retry loop (a single [pread] may return
    short) and validates it — bad magic, page size < 64 or non-zero
    reserved bytes all return [Error] instead of yielding a pager that
    misbehaves later. *)

val page_size : t -> int
val page_count : t -> int
(** Pages allocated, excluding the header. *)

val alloc : t -> int
(** Append a page and return its id.  Nothing is written until {!write};
    an allocated page never written reads as zeros. *)

val read : t -> int -> string
(** Full page contents, read from the file. *)

val write : t -> int -> string -> unit
(** Write a page's contents (padded with zeros if short) to the file.
    @raise Invalid_argument if longer than a page. *)

val sync : t -> unit
(** Write the header and [fsync]: every written page and the page count
    become durable. *)

val close : t -> unit
(** Sync if anything was allocated or written since open or the last
    {!sync}, then release the file; further use raises.  A pager that was
    only read writes nothing, so {!Fsck} and [Encdb.load] leave the image
    they inspect untouched. *)
