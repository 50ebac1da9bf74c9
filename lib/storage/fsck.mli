(** Offline recovery checker for {!Pager} files ([secdb fsck]).

    After a crash the surviving image is whatever the {!Vfs} fault model
    (or a real disk) left behind.  [run] walks it without ever trusting a
    pointer: header fields are validated by {!Pager.open_file}, the file
    size is checked against the header's page count (bytes past the last
    page and pages missing from the end are both issues), and each given
    blob root's chain is checked for bounds and cycles.  It always returns a
    report — a broken image yields issues, not exceptions. *)

type issue =
  | Header of string  (** unopenable or invalid header *)
  | Chain of { head : int; page : int; reason : string }
      (** blob chain [head] is malformed at [page] *)
  | Trailing_garbage of { file_size : int; expected : int }
      (** bytes beyond the last page the header accounts for *)
  | Short_file of { file_size : int; expected : int }
      (** the file ends before the last page the header counts *)

type report = {
  path : string;
  page_size : int;
  npages : int;
  chains : (int * int list) list;  (** each checked root and its pages *)
  issues : issue list;
}

val issue_to_string : issue -> string

val ok : report -> bool
(** [issues = []]. *)

val run : ?vfs:Vfs.t -> ?roots:int list -> path:string -> unit -> report
(** Check [path]; [roots] are blob ids whose chains should be walked. *)
