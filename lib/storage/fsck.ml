type issue =
  | Header of string
  | Chain of { head : int; page : int; reason : string }
  | Trailing_garbage of { file_size : int; expected : int }
  | Short_file of { file_size : int; expected : int }

type report = {
  path : string;
  page_size : int;
  npages : int;
  chains : (int * int list) list;
  issues : issue list;
}

let issue_to_string = function
  | Header m -> Printf.sprintf "header: %s" m
  | Chain { head; page; reason } -> Printf.sprintf "blob %d: page %d: %s" head page reason
  | Trailing_garbage { file_size; expected } ->
      Printf.sprintf "file is %d bytes but the header accounts for at most %d" file_size expected
  | Short_file { file_size; expected } ->
      Printf.sprintf "file is %d bytes but the header's pages need %d" file_size expected

let ok r = r.issues = []

let run ?(vfs = Vfs.unix) ?(roots = []) ~path () =
  match Pager.open_file ~path ~vfs () with
  | Error e ->
      (* header sanity is open_file's validation; a file we cannot even
         open still gets a (failing) report rather than an exception *)
      { path; page_size = 0; npages = 0; chains = []; issues = [ Header e ] }
  | Ok pager ->
      Fun.protect
        ~finally:(fun () -> try Pager.close pager with Vfs.Io_error _ -> ())
        (fun () ->
          let psize = Pager.page_size pager in
          let npages = Pager.page_count pager in
          let issues = ref [] in
          let add i = issues := i :: !issues in
          (* file size vs header page count: bytes past the last allocated
             page belong to no page and are unreachable garbage; a file that
             ends before it lost pages the header still counts *)
          (match vfs.Vfs.open_file ~path ~mode:`Read with
          | f ->
              let sz = f.Vfs.size () in
              f.Vfs.close ();
              let expected = (npages + 1) * psize in
              if sz > expected then add (Trailing_garbage { file_size = sz; expected })
              else if sz < expected then add (Short_file { file_size = sz; expected })
          | exception Vfs.Io_error _ -> ());
          (* blob chains: bounds and cycles, via Blob_store's bounded walk *)
          let blob = Blob_store.attach pager in
          let chains =
            List.map
              (fun head ->
                match Blob_store.pages_of blob head with
                | Error { Blob_store.page; reason } ->
                    add (Chain { head; page; reason });
                    (head, [])
                | Ok pages -> (head, pages))
              roots
          in
          { path; page_size = psize; npages; chains; issues = List.rev !issues })
