(** Arbitrary-length byte strings over {!Pager} pages.

    A blob is a chain of pages: each page holds an 8-byte next-page id
    (0 = end), a 4-byte payload length, and payload bytes.  Blob ids are
    the chain's first page id.  Together with {!Pager} this gives the
    encrypted artefacts a realistic home on disk: [Encdb.save] stores
    every table and index as a blob behind one directory blob.

    Chain walks are bounded by the pager's page count (a chain cannot be
    longer than the file), so a corrupted next pointer that forms a cycle
    is detected in linear time and reported against the offending page. *)

type t

type chain_error = { page : int; reason : string }
(** A malformed chain, naming the page where the walk failed: an
    out-of-range id, a corrupt page header, or a cycle. *)

val chain_error_to_string : chain_error -> string

val attach : Pager.t -> t
(** Use (and share) a pager; blobs from different stores over the same
    pager coexist. *)

val store : t -> string -> int
(** Write a blob onto freshly appended pages; returns its id.  A stored
    blob is never rewritten or freed. *)

val load : t -> int -> (string, chain_error) result
(** Read a blob back; [Error] on a malformed chain. *)

val pages_of : t -> int -> (int list, chain_error) result
(** The page chain of a blob (for trace experiments and {!Fsck}). *)
