open Secdb_util
module Metrics = Secdb_obs.Metrics
module Value = Secdb_db.Value
module Codec = Secdb_db.Codec

let m_node_loads = Metrics.counter "pbt.node_loads"
let m_node_writes = Metrics.counter "pbt.node_writes"
let m_cache_hits = Metrics.counter "pbt.cache_hits"
let m_evictions = Metrics.counter "pbt.evictions"

type kind = Inner | Leaf

type seal = {
  seal_name : string;
  seal : page:int -> string -> string;
  unseal : page:int -> string -> (string, string) result;
}

let be8 = Xbytes.int_to_be_string ~width:8

let aead_seal ~aead ~nonce ~tree_id =
  let ad page = "pbt1" ^ be8 tree_id ^ be8 page in
  let ns = aead.Secdb_aead.Aead.nonce_size and ts = aead.Secdb_aead.Aead.tag_size in
  {
    seal_name = "aead:" ^ aead.Secdb_aead.Aead.name;
    seal =
      (fun ~page m ->
        let n = nonce () in
        let ct, tag = Secdb_aead.Aead.encrypt aead ~nonce:n ~ad:(ad page) m in
        n ^ tag ^ ct);
    unseal =
      (fun ~page b ->
        if String.length b < ns + ts then Error "sealed node too short"
        else
          let n = String.sub b 0 ns in
          let tag = String.sub b ns ts in
          let ct = String.sub b (ns + ts) (String.length b - ns - ts) in
          match Secdb_aead.Aead.decrypt aead ~nonce:n ~ad:(ad page) ~tag ct with
          | Ok m -> Ok m
          | Error Secdb_aead.Aead.Invalid -> Error "node AEAD authentication failed");
  }

exception Integrity of string

(* Decoded node, cached.  [rows] parallels [keys] on leaves; [children]
   has length keys+1 on inner nodes; [next] chains leaves (0 = none —
   page ids are > 0).  Cached nodes form an intrusive LRU list exactly
   like the pager's frames. *)
type cnode = {
  page : int;
  ckind : kind;
  mutable keys : Value.t array;
  mutable rows : int array;
  mutable children : int array;
  mutable next : int;
  mutable dirty : bool;
  mutable lru_prev : cnode option;
  mutable lru_next : cnode option;
}

type t = {
  pager : Pager.t;
  tree_seal : seal;
  tree_id : int;
  torder : int;
  meta : int;
  cache_nodes : int;
  cache : (int, cnode) Hashtbl.t;
  mutable lru_head : cnode option;
  mutable lru_tail : cnode option;
  mutable root : int;
  mutable tsize : int;
}

let meta_page t = t.meta
let id t = t.tree_id
let order t = t.torder
let size t = t.tsize
let cached_nodes t = Hashtbl.length t.cache
let min_keys t = t.torder / 2

(* --- node serialization ------------------------------------------------ *)

let meta_magic = "PBTM1"

let encode_node (n : cnode) =
  let keys = Codec.frame (Array.to_list (Array.map Value.encode n.keys)) in
  match n.ckind with
  | Leaf ->
      Codec.frame
        [ "L"; keys; String.concat "" (Array.to_list (Array.map be8 n.rows)); be8 n.next ]
  | Inner ->
      Codec.frame
        [ "I"; keys; String.concat "" (Array.to_list (Array.map be8 n.children)); "" ]

let ints_of_blob blob =
  let len = String.length blob in
  if len mod 8 <> 0 then Error "int list not a multiple of 8 bytes"
  else Ok (Array.init (len / 8) (fun i -> Xbytes.be_string_to_int (String.sub blob (i * 8) 8)))

let decode_node ~page plaintext =
  let ( let* ) = Result.bind in
  let* fields =
    match Codec.unframe plaintext with
    | Ok [ a; b; c; d ] -> Ok (a, b, c, d)
    | Ok _ -> Error "node: wrong field count"
    | Error e -> Error e
  in
  let tag, keys_blob, ints_blob, next_blob = fields in
  let* kl = Codec.unframe keys_blob in
  let* keys =
    List.fold_left
      (fun acc k ->
        let* acc = acc in
        let* v = Value.decode k in
        Ok (v :: acc))
      (Ok []) kl
  in
  let keys = Array.of_list (List.rev keys) in
  let* ints = ints_of_blob ints_blob in
  match tag with
  | "L" ->
      if Array.length ints <> Array.length keys then Error "leaf: row count mismatch"
      else if String.length next_blob <> 8 then Error "leaf: bad next pointer"
      else
        Ok
          {
            page;
            ckind = Leaf;
            keys;
            rows = ints;
            children = [||];
            next = Xbytes.be_string_to_int next_blob;
            dirty = false;
            lru_prev = None;
            lru_next = None;
          }
  | "I" ->
      if Array.length ints <> Array.length keys + 1 then Error "inner: child count mismatch"
      else if next_blob <> "" then Error "inner: trailing data"
      else
        Ok
          {
            page;
            ckind = Inner;
            keys;
            rows = [||];
            children = ints;
            next = 0;
            dirty = false;
            lru_prev = None;
            lru_next = None;
          }
  | _ -> Error "node: unknown kind tag"

(* --- page I/O ----------------------------------------------------------- *)

(* Page layout: [len:4][sealed bytes], zero-padded to the page size. *)

let write_page t ~page body =
  let sealed = t.tree_seal.seal ~page body in
  if 4 + String.length sealed > Pager.page_size t.pager then
    invalid_arg
      (Printf.sprintf "Paged_bptree: node needs %d bytes, page holds %d"
         (4 + String.length sealed)
         (Pager.page_size t.pager));
  Pager.write t.pager page (Xbytes.int_to_be_string ~width:4 (String.length sealed) ^ sealed)

let read_page t ~page =
  let raw = Pager.read t.pager page in
  let len = Xbytes.be_string_to_int (String.sub raw 0 4) in
  if 4 + len > String.length raw then Error "sealed length exceeds the page"
  else t.tree_seal.unseal ~page (String.sub raw 4 len)

let write_node t (n : cnode) =
  write_page t ~page:n.page (encode_node n);
  Metrics.incr m_node_writes

let write_meta t =
  write_page t ~page:t.meta
    (Codec.frame [ meta_magic; be8 t.tree_id; be8 t.torder; be8 t.root; be8 t.tsize ])

(* --- node cache --------------------------------------------------------- *)

let lru_unlink t n =
  (match n.lru_prev with
  | Some p -> p.lru_next <- n.lru_next
  | None -> t.lru_head <- n.lru_next);
  (match n.lru_next with
  | Some x -> x.lru_prev <- n.lru_prev
  | None -> t.lru_tail <- n.lru_prev);
  n.lru_prev <- None;
  n.lru_next <- None

let lru_push_front t n =
  n.lru_prev <- None;
  n.lru_next <- t.lru_head;
  (match t.lru_head with Some h -> h.lru_prev <- Some n | None -> t.lru_tail <- Some n);
  t.lru_head <- Some n

let touch t n =
  match t.lru_head with
  | Some h when h == n -> ()
  | _ ->
      lru_unlink t n;
      lru_push_front t n

let evict_one t =
  match t.lru_tail with
  | None -> ()
  | Some victim ->
      if victim.dirty then write_node t victim;
      lru_unlink t victim;
      Hashtbl.remove t.cache victim.page;
      Metrics.incr m_evictions

let insert_cnode t n =
  if Hashtbl.length t.cache >= t.cache_nodes then evict_one t;
  lru_push_front t n;
  Hashtbl.replace t.cache n.page n

(* Fetch a node through the cache.

   Caller discipline: a [cnode] reference must not be mutated after any
   intervening [node_of]/[alloc_node] call chain longer than
   [cache_nodes - 4] loads (it may have been evicted, so writes would be
   lost) — the tree algorithms below re-fetch nodes after every recursive
   call, and [cache_nodes >= 8] guarantees the handful of nodes touched
   inside one straight-line rebalance step are never the eviction
   victim. *)
let node_of t page =
  match Hashtbl.find_opt t.cache page with
  | Some n ->
      Metrics.incr m_cache_hits;
      touch t n;
      n
  | None -> (
      match read_page t ~page with
      | Error e -> raise (Integrity (Printf.sprintf "node page %d: %s" page e))
      | Ok plaintext -> (
          match decode_node ~page plaintext with
          | Error e -> raise (Integrity (Printf.sprintf "node page %d: %s" page e))
          | Ok n ->
              Metrics.incr m_node_loads;
              insert_cnode t n;
              n))

let alloc_node t ckind =
  let page = Pager.alloc t.pager in
  let n =
    { page; ckind; keys = [||]; rows = [||]; children = [||]; next = 0; dirty = true;
      lru_prev = None; lru_next = None }
  in
  insert_cnode t n;
  n

let free_node t page =
  (match Hashtbl.find_opt t.cache page with
  | Some n ->
      lru_unlink t n;
      Hashtbl.remove t.cache page
  | None -> ());
  Pager.free t.pager page

(* --- lifecycle ---------------------------------------------------------- *)

let create ~pager ~seal ?(order = 4) ?(cache_nodes = 64) ~id () =
  if order < 2 then invalid_arg "Paged_bptree.create: order must be >= 2";
  if cache_nodes < 8 then invalid_arg "Paged_bptree.create: cache_nodes must be >= 8";
  let meta = Pager.alloc pager in
  let t =
    { pager; tree_seal = seal; tree_id = id; torder = order; meta; cache_nodes;
      cache = Hashtbl.create cache_nodes; lru_head = None; lru_tail = None; root = 0;
      tsize = 0 }
  in
  let root = alloc_node t Leaf in
  t.root <- root.page;
  write_meta t;
  t

let open_tree ~pager ~seal ?(cache_nodes = 64) ~meta () =
  if cache_nodes < 8 then invalid_arg "Paged_bptree.open_tree: cache_nodes must be >= 8";
  let fail fmt = Printf.ksprintf (fun s -> Error ("Paged_bptree.open_tree: " ^ s)) fmt in
  if meta < 1 || meta > Pager.page_count pager then fail "meta page %d out of range" meta
  else
    let t0 =
      { pager; tree_seal = seal; tree_id = 0; torder = 2; meta; cache_nodes;
        cache = Hashtbl.create cache_nodes; lru_head = None; lru_tail = None; root = 0;
        tsize = 0 }
    in
    match read_page t0 ~page:meta with
    | Error e -> fail "meta page %d: %s" meta e
    | Ok plaintext -> (
        match Codec.unframe plaintext with
        | Ok [ magic; idb; orderb; rootb; sizeb ]
          when magic = meta_magic
               && String.length idb = 8 && String.length orderb = 8
               && String.length rootb = 8 && String.length sizeb = 8 ->
            let tree_id = Xbytes.be_string_to_int idb in
            let order = Xbytes.be_string_to_int orderb in
            let root = Xbytes.be_string_to_int rootb in
            let tsize = Xbytes.be_string_to_int sizeb in
            if order < 2 then fail "invalid order %d" order
            else if root < 1 || root > Pager.page_count pager then
              fail "root page %d out of range" root
            else if tsize < 0 then fail "invalid size %d" tsize
            else Ok { t0 with tree_id; torder = order; root; tsize }
        | Ok _ -> fail "meta page %d is not a tree meta" meta
        | Error e -> fail "meta page %d: %s" meta e)

let flush t =
  Hashtbl.iter
    (fun _ n ->
      if n.dirty then begin
        write_node t n;
        n.dirty <- false
      end)
    t.cache;
  write_meta t;
  Pager.flush t.pager

(* --- in-node binary search --------------------------------------------- *)

(* First index with keys.(i) >= probe (leftmost on equality). *)
let lower_bound (keys : Value.t array) probe =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare keys.(mid) probe < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* First index with keys.(i) > probe (duplicates go right). *)
let upper_bound (keys : Value.t array) probe =
  let lo = ref 0 and hi = ref (Array.length keys) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Value.compare keys.(mid) probe <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let array_insert arr i v =
  Array.append (Array.sub arr 0 i) (Array.append [| v |] (Array.sub arr i (Array.length arr - i)))

let array_remove arr i =
  Array.append (Array.sub arr 0 i) (Array.sub arr (i + 1) (Array.length arr - i - 1))

(* --- insertion ---------------------------------------------------------- *)

(* Split a full node; returns (separator, new right page). *)
let split_node t page =
  let n = node_of t page in
  let right = alloc_node t n.ckind in
  let k = Array.length n.keys in
  let mid = k / 2 in
  n.dirty <- true;
  match n.ckind with
  | Leaf ->
      right.keys <- Array.sub n.keys mid (k - mid);
      right.rows <- Array.sub n.rows mid (k - mid);
      right.next <- n.next;
      n.keys <- Array.sub n.keys 0 mid;
      n.rows <- Array.sub n.rows 0 mid;
      n.next <- right.page;
      (right.keys.(0), right.page)
  | Inner ->
      let sep = n.keys.(mid) in
      right.keys <- Array.sub n.keys (mid + 1) (k - mid - 1);
      right.children <- Array.sub n.children (mid + 1) (k - mid);
      n.keys <- Array.sub n.keys 0 mid;
      n.children <- Array.sub n.children 0 (mid + 1);
      (sep, right.page)

let insert t value ~table_row =
  let rec ins page =
    let n = node_of t page in
    match n.ckind with
    | Leaf ->
        let pos = upper_bound n.keys value in
        n.keys <- array_insert n.keys pos value;
        n.rows <- array_insert n.rows pos table_row;
        n.dirty <- true;
        if Array.length n.keys > t.torder then Some (split_node t page) else None
    | Inner -> (
        let idx = upper_bound n.keys value in
        let child = n.children.(idx) in
        match ins child with
        | None -> None
        | Some (sep, right_page) ->
            (* the recursion may have evicted [n]; re-fetch before mutating *)
            let n = node_of t page in
            n.keys <- array_insert n.keys idx sep;
            n.children <- array_insert n.children (idx + 1) right_page;
            n.dirty <- true;
            if Array.length n.keys > t.torder then Some (split_node t page) else None)
  in
  (match ins t.root with
  | None -> ()
  | Some (sep, right_page) ->
      let old_root = t.root in
      let nr = alloc_node t Inner in
      nr.keys <- [| sep |];
      nr.children <- [| old_root; right_page |];
      t.root <- nr.page);
  t.tsize <- t.tsize + 1

(* --- lookup ------------------------------------------------------------- *)

let leftmost_leaf_for t probe =
  let rec loop page =
    let n = node_of t page in
    match n.ckind with Leaf -> page | Inner -> loop n.children.(lower_bound n.keys probe)
  in
  loop t.root

let first_leaf t =
  let rec loop page =
    let n = node_of t page in
    match n.ckind with Leaf -> page | Inner -> loop n.children.(0)
  in
  loop t.root

(* Scan the leaf chain from [page] applying [f value table_row] while it
   returns [`Continue].  The key/row arrays are captured before following
   [next], so eviction of the node record mid-scan is harmless. *)
let scan_from t page f =
  let rec loop page =
    let n = node_of t page in
    let keys = n.keys and rows = n.rows and next = n.next in
    let stop = ref false in
    let i = ref 0 in
    while (not !stop) && !i < Array.length keys do
      (match f keys.(!i) rows.(!i) with `Continue -> () | `Stop -> stop := true);
      incr i
    done;
    if (not !stop) && next <> 0 then loop next
  in
  loop page

let find t probe =
  let leaf = leftmost_leaf_for t probe in
  let acc = ref [] in
  scan_from t leaf (fun value row ->
      let c = Value.compare value probe in
      if c < 0 then `Continue
      else if c = 0 then begin
        acc := row :: !acc;
        `Continue
      end
      else `Stop);
  List.rev !acc

let range t ?lo ?hi () =
  let leaf = match lo with Some v -> leftmost_leaf_for t v | None -> first_leaf t in
  let acc = ref [] in
  scan_from t leaf (fun value row ->
      let below = match lo with Some v -> Value.compare value v < 0 | None -> false in
      let above = match hi with Some v -> Value.compare value v > 0 | None -> false in
      if above then `Stop
      else begin
        if not below then acc := (value, row) :: !acc;
        `Continue
      end);
  List.rev !acc

let height t =
  let rec loop page acc =
    let n = node_of t page in
    match n.ckind with Leaf -> acc | Inner -> loop n.children.(0) (acc + 1)
  in
  loop t.root 1

(* --- deletion ----------------------------------------------------------- *)

(* Rebalance child [idx] of the node at [parent_page] after a removal
   left it underfull.  All involved nodes (parent, child, both
   neighbours) are loaded up front; with cache_nodes >= 8 none of them
   can be evicted before the mutations below complete. *)
let fix_child t parent_page idx =
  let parent = node_of t parent_page in
  let child = node_of t parent.children.(idx) in
  if Array.length child.keys >= min_keys t then ()
  else begin
    let nch = Array.length parent.children in
    let left = if idx > 0 then Some (node_of t parent.children.(idx - 1)) else None in
    let right = if idx < nch - 1 then Some (node_of t parent.children.(idx + 1)) else None in
    let can_lend = function Some n -> Array.length n.keys > min_keys t | None -> false in
    parent.dirty <- true;
    child.dirty <- true;
    if can_lend right then begin
      let r = Option.get right in
      r.dirty <- true;
      (match child.ckind with
      | Leaf ->
          child.keys <- Array.append child.keys [| r.keys.(0) |];
          child.rows <- Array.append child.rows [| r.rows.(0) |];
          r.keys <- array_remove r.keys 0;
          r.rows <- array_remove r.rows 0;
          parent.keys.(idx) <- r.keys.(0)
      | Inner ->
          let sep = parent.keys.(idx) in
          child.keys <- Array.append child.keys [| sep |];
          child.children <- Array.append child.children [| r.children.(0) |];
          parent.keys.(idx) <- r.keys.(0);
          r.keys <- array_remove r.keys 0;
          r.children <- array_remove r.children 0)
    end
    else if can_lend left then begin
      let l = Option.get left in
      let lk = Array.length l.keys in
      l.dirty <- true;
      match child.ckind with
      | Leaf ->
          child.keys <- array_insert child.keys 0 l.keys.(lk - 1);
          child.rows <- array_insert child.rows 0 l.rows.(lk - 1);
          l.keys <- array_remove l.keys (lk - 1);
          l.rows <- array_remove l.rows (lk - 1);
          parent.keys.(idx - 1) <- child.keys.(0)
      | Inner ->
          let sep = parent.keys.(idx - 1) in
          child.keys <- array_insert child.keys 0 sep;
          child.children <- array_insert child.children 0 l.children.(lk);
          parent.keys.(idx - 1) <- l.keys.(lk - 1);
          l.keys <- array_remove l.keys (lk - 1);
          l.children <- array_remove l.children lk
    end
    else begin
      (* merge child with a sibling; normalise to a (left, right) pair *)
      let lidx, l, r =
        match left with Some l -> (idx - 1, l, child) | None -> (idx, child, Option.get right)
      in
      l.dirty <- true;
      (match l.ckind with
      | Leaf ->
          l.keys <- Array.append l.keys r.keys;
          l.rows <- Array.append l.rows r.rows;
          l.next <- r.next
      | Inner ->
          let sep = parent.keys.(lidx) in
          l.keys <- Array.concat [ l.keys; [| sep |]; r.keys ];
          l.children <- Array.append l.children r.children);
      parent.keys <- array_remove parent.keys lidx;
      parent.children <- array_remove parent.children (lidx + 1);
      free_node t r.page
    end
  end

let delete t probe ~table_row =
  (* [del page] returns true iff one matching entry was removed below. *)
  let rec del page =
    let n = node_of t page in
    match n.ckind with
    | Leaf ->
        let k = Array.length n.keys in
        let found = ref None in
        let i = ref (lower_bound n.keys probe) in
        while
          !found = None && !i < k && Value.compare n.keys.(!i) probe = 0
        do
          if n.rows.(!i) = table_row then found := Some !i;
          incr i
        done;
        (match !found with
        | Some i ->
            n.keys <- array_remove n.keys i;
            n.rows <- array_remove n.rows i;
            n.dirty <- true
        | None -> ());
        !found <> None
    | Inner ->
        (* duplicates may straddle separators equal to the probe: try every
           candidate subtree left to right until one succeeds *)
        let keys = n.keys and children = n.children in
        let k = Array.length keys in
        let first = lower_bound keys probe in
        let rec try_child idx =
          if idx > k then false
          else if idx > first && Value.compare probe keys.(idx - 1) < 0 then false
          else if del children.(idx) then begin
            fix_child t page idx;
            true
          end
          else try_child (idx + 1)
        in
        try_child first
  in
  let removed = del t.root in
  if removed then begin
    t.tsize <- t.tsize - 1;
    let root = node_of t t.root in
    if root.ckind = Inner && Array.length root.keys = 0 then begin
      let only_child = root.children.(0) in
      free_node t t.root;
      t.root <- only_child
    end
  end;
  removed
