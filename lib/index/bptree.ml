open Secdb_util
module Value = Secdb_db.Value

type kind = Inner | Leaf
type ctx = { index_table : int; node_row : int; kind : kind }

type codec = {
  codec_name : string;
  encode : ctx -> value:Value.t -> table_row:int option -> string;
  decode : ctx -> string -> (Value.t * int option, string) result;
  decode_unverified : (ctx -> string -> (Value.t * int option, string) result) option;
}

exception Integrity of string

let plain_codec =
  {
    codec_name = "plain";
    encode =
      (fun _ctx ~value ~table_row ->
        Secdb_db.Codec.frame
          [
            Value.encode value;
            (match table_row with
            | None -> ""
            | Some r -> Xbytes.int_to_be_string ~width:8 r);
          ]);
    decode =
      (fun _ctx payload ->
        match Secdb_db.Codec.unframe2 payload with
        | Error e -> Error e
        | Ok (v, r) -> (
            match Value.decode v with
            | Error e -> Error e
            | Ok value ->
                if r = "" then Ok (value, None)
                else Ok (value, Some (Xbytes.be_string_to_int r))));
    decode_unverified = None;
  }

type node = {
  row : int;
  nkind : kind;
  mutable payloads : string array;
  mutable children : int array; (* inner: length = Array.length payloads + 1 *)
  mutable next : int; (* leaf chain; -1 = none *)
}

type t = {
  tree_id : int;
  order : int;
  tree_codec : codec;
  nodes : node option Vec.t;
  mutable root : int;
  mutable size : int;
}

let alloc t nkind =
  let row = Vec.length t.nodes in
  let n = { row; nkind; payloads = [||]; children = [||]; next = -1 } in
  ignore (Vec.push t.nodes (Some n));
  n

let create ?(order = 4) ~id ~codec () =
  if order < 2 then invalid_arg "Bptree.create: order must be >= 2";
  let t =
    { tree_id = id; order; tree_codec = codec; nodes = Vec.create (); root = 0; size = 0 }
  in
  let root = alloc t Leaf in
  t.root <- root.row;
  t

let id t = t.tree_id
let order t = t.order
let size t = t.size
let codec t = t.tree_codec
let min_keys t = t.order / 2

let get_node t row =
  match Vec.get t.nodes row with
  | Some n -> n
  | None -> invalid_arg (Printf.sprintf "Bptree: node row %d is free" row)

let ctx_of t (n : node) = { index_table = t.tree_id; node_row = n.row; kind = n.nkind }

let decode_slot t n slot =
  match t.tree_codec.decode (ctx_of t n) n.payloads.(slot) with
  | Ok v -> v
  | Error e ->
      raise
        (Integrity
           (Printf.sprintf "node %d slot %d (%s): %s" n.row slot
              (match n.nkind with Inner -> "inner" | Leaf -> "leaf")
              e))

let value_at t n slot = fst (decode_slot t n slot)

let encode_entry t n value table_row =
  t.tree_codec.encode (ctx_of t n) ~value ~table_row

(* Re-encode a payload that moves from node [src] to node [dst]. *)
let reencode t src dst payload =
  match t.tree_codec.decode (ctx_of t src) payload with
  | Error e -> raise (Integrity (Printf.sprintf "re-encode from node %d: %s" src.row e))
  | Ok (value, table_row) -> t.tree_codec.encode (ctx_of t dst) ~value ~table_row

let array_insert arr i v =
  Array.append (Array.sub arr 0 i) (Array.append [| v |] (Array.sub arr i (Array.length arr - i)))

let array_remove arr i =
  Array.append (Array.sub arr 0 i) (Array.sub arr (i + 1) (Array.length arr - i - 1))

(* First child that may contain the probe when looking for the leftmost
   occurrence: the first separator >= probe keeps us left on equality. *)
let child_for_find t n probe =
  let k = Array.length n.payloads in
  let rec loop i = if i < k && Value.compare probe (value_at t n i) > 0 then loop (i + 1) else i in
  loop 0

(* Insertion sends duplicates to the right of existing equal keys. *)
let child_for_insert t n probe =
  let k = Array.length n.payloads in
  let rec loop i = if i < k && Value.compare probe (value_at t n i) >= 0 then loop (i + 1) else i in
  loop 0

let leaf_insert_pos t n probe =
  let k = Array.length n.payloads in
  let rec loop i = if i < k && Value.compare probe (value_at t n i) >= 0 then loop (i + 1) else i in
  loop 0

(* Split a full node; returns (separator value, new right row). *)
let split_node t (n : node) =
  let k = Array.length n.payloads in
  let right = alloc t n.nkind in
  match n.nkind with
  | Leaf ->
      let mid = k / 2 in
      right.payloads <-
        Array.map (fun p -> reencode t n right p) (Array.sub n.payloads mid (k - mid));
      n.payloads <- Array.sub n.payloads 0 mid;
      right.next <- n.next;
      n.next <- right.row;
      (value_at t right 0, right.row)
  | Inner ->
      let mid = k / 2 in
      let sep = value_at t n mid in
      right.payloads <-
        Array.map (fun p -> reencode t n right p) (Array.sub n.payloads (mid + 1) (k - mid - 1));
      right.children <- Array.sub n.children (mid + 1) (k - mid);
      n.payloads <- Array.sub n.payloads 0 mid;
      n.children <- Array.sub n.children 0 (mid + 1);
      (sep, right.row)

let insert t value ~table_row =
  let rec ins row =
    let n = get_node t row in
    (match n.nkind with
    | Leaf ->
        let pos = leaf_insert_pos t n value in
        n.payloads <- array_insert n.payloads pos (encode_entry t n value (Some table_row))
    | Inner -> (
        let idx = child_for_insert t n value in
        match ins n.children.(idx) with
        | None -> ()
        | Some (sep, right_row) ->
            n.payloads <- array_insert n.payloads idx (encode_entry t n sep None);
            n.children <- array_insert n.children (idx + 1) right_row));
    if Array.length n.payloads > t.order then Some (split_node t n) else None
  in
  (match ins t.root with
  | None -> ()
  | Some (sep, right_row) ->
      let old_root = t.root in
      let new_root = alloc t Inner in
      new_root.children <- [| old_root; right_row |];
      new_root.payloads <- [| encode_entry t new_root sep None |];
      t.root <- new_root.row);
  t.size <- t.size + 1

(* Split n items into chunks each of size within [min_fill, cap] (a single
   chunk may be smaller — it becomes the root).  Sizes are as even as
   possible, which keeps every chunk >= min_fill whenever n >= 2*min_fill. *)
let chunk_sizes n ~cap =
  if n <= cap then [ n ]
  else begin
    let k = (n + cap - 1) / cap in
    let base = n / k and rem = n mod k in
    List.init k (fun i -> if i < rem then base + 1 else base)
  end

let take_chunks sizes l =
  let rec take n acc l =
    if n = 0 then (List.rev acc, l)
    else match l with [] -> invalid_arg "take_chunks" | x :: rest -> take (n - 1) (x :: acc) rest
  in
  let rec loop acc l = function
    | [] -> List.rev acc
    | n :: sizes ->
        let chunk, rest = take n [] l in
        loop (chunk :: acc) rest sizes
  in
  loop [] l sizes

let bulk_load ?(order = 4) ~id ~codec entries =
  if order < 2 then invalid_arg "Bptree.bulk_load: order must be >= 2";
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if Value.compare a b > 0 then invalid_arg "Bptree.bulk_load: input not sorted"
        else sorted rest
    | _ -> ()
  in
  sorted entries;
  let t =
    { tree_id = id; order; tree_codec = codec; nodes = Vec.create (); root = 0; size = 0 }
  in
  match entries with
  | [] ->
      let root = alloc t Leaf in
      t.root <- root.row;
      t
  | entries ->
      (* leaf level: (node, min value) pairs, chained left to right.  Each
         entry is encoded once, leaf by leaf in entry order, so a stateful
         codec (nonce counter, RNG) draws its state in input order. *)
      let leaves =
        List.map
          (fun chunk ->
            let n = alloc t Leaf in
            n.payloads <-
              Array.of_list (List.map (fun (v, row) -> encode_entry t n v (Some row)) chunk);
            (n, fst (List.hd chunk)))
          (take_chunks (chunk_sizes (List.length entries) ~cap:order) entries)
      in
      List.iter2
        (fun (a, _) (b, _) -> a.next <- b.row)
        (List.filteri (fun i _ -> i < List.length leaves - 1) leaves)
        (List.tl leaves);
      (* inner levels bottom-up until a single node remains *)
      let rec build level =
        match level with
        | [ (n, _) ] ->
            t.root <- n.row;
            t.size <- List.length entries;
            t
        | level ->
            let parents =
              List.map
                (fun children ->
                  let n = alloc t Inner in
                  n.children <- Array.of_list (List.map (fun (c, _) -> c.row) children);
                  (* separators: min value of each child but the first *)
                  n.payloads <-
                    Array.of_list
                      (List.map (fun (_, mn) -> encode_entry t n mn None) (List.tl children));
                  (n, snd (List.hd children)))
                (take_chunks (chunk_sizes (List.length level) ~cap:(order + 1)) level)
            in
            build parents
      in
      build leaves

let leftmost_leaf_for t probe =
  let rec loop row =
    let n = get_node t row in
    match n.nkind with Leaf -> n | Inner -> loop n.children.(child_for_find t n probe)
  in
  loop t.root

let first_leaf t =
  let rec loop row =
    let n = get_node t row in
    match n.nkind with Leaf -> n.row | Inner -> loop n.children.(0)
  in
  loop t.root

(* Scan the leaf chain from [leaf] applying [f value table_row] while it
   returns [`Continue]. *)
let scan_from t (leaf : node) f =
  let rec loop (n : node) =
    let stop = ref false in
    let i = ref 0 in
    while (not !stop) && !i < Array.length n.payloads do
      let value, table_row = decode_slot t n !i in
      (match f value table_row with `Continue -> () | `Stop -> stop := true);
      incr i
    done;
    if (not !stop) && n.next >= 0 then loop (get_node t n.next)
  in
  loop leaf

let find t probe =
  let leaf = leftmost_leaf_for t probe in
  let acc = ref [] in
  scan_from t leaf (fun value table_row ->
      let c = Value.compare value probe in
      if c < 0 then `Continue
      else if c = 0 then begin
        (match table_row with Some r -> acc := r :: !acc | None -> ());
        `Continue
      end
      else `Stop);
  List.rev !acc

let range t ?lo ?hi () =
  let leaf = match lo with Some v -> leftmost_leaf_for t v | None -> get_node t (first_leaf t) in
  let acc = ref [] in
  scan_from t leaf (fun value table_row ->
      let below = match lo with Some v -> Value.compare value v < 0 | None -> false in
      let above = match hi with Some v -> Value.compare value v > 0 | None -> false in
      if above then `Stop
      else begin
        (if not below then
           match table_row with Some r -> acc := (value, r) :: !acc | None -> ());
        `Continue
      end);
  List.rev !acc

let height t =
  let rec loop row acc =
    let n = get_node t row in
    match n.nkind with Leaf -> acc | Inner -> loop n.children.(0) (acc + 1)
  in
  loop t.root 1

let path_to t probe =
  let rec loop row acc =
    let n = get_node t row in
    match n.nkind with
    | Leaf -> List.rev (row :: acc)
    | Inner -> loop n.children.(child_for_find t n probe) (row :: acc)
  in
  loop t.root []

(* --- deletion ------------------------------------------------------- *)

let free_node t row = Vec.set t.nodes row None

(* Rebalance child [idx] of [parent] after a removal left it underfull. *)
let fix_child t (parent : node) idx =
  let child = get_node t parent.children.(idx) in
  if Array.length child.payloads >= min_keys t then ()
  else begin
    let nch = Array.length parent.children in
    let left = if idx > 0 then Some (get_node t parent.children.(idx - 1)) else None in
    let right = if idx < nch - 1 then Some (get_node t parent.children.(idx + 1)) else None in
    let can_lend = function
      | Some n -> Array.length n.payloads > min_keys t
      | None -> false
    in
    if can_lend right then begin
      let r = Option.get right in
      (match child.nkind with
      | Leaf ->
          child.payloads <- Array.append child.payloads [| reencode t r child r.payloads.(0) |];
          r.payloads <- array_remove r.payloads 0;
          parent.payloads.(idx) <- encode_entry t parent (value_at t r 0) None
      | Inner ->
          let sep = value_at t parent idx in
          child.payloads <- Array.append child.payloads [| encode_entry t child sep None |];
          child.children <- Array.append child.children [| r.children.(0) |];
          parent.payloads.(idx) <- encode_entry t parent (value_at t r 0) None;
          r.payloads <- array_remove r.payloads 0;
          r.children <- array_remove r.children 0)
    end
    else if can_lend left then begin
      let l = Option.get left in
      let lk = Array.length l.payloads in
      match child.nkind with
      | Leaf ->
          let moved = reencode t l child l.payloads.(lk - 1) in
          child.payloads <- array_insert child.payloads 0 moved;
          l.payloads <- array_remove l.payloads (lk - 1);
          parent.payloads.(idx - 1) <- encode_entry t parent (value_at t child 0) None
      | Inner ->
          let sep = value_at t parent (idx - 1) in
          child.payloads <- array_insert child.payloads 0 (encode_entry t child sep None);
          child.children <- array_insert child.children 0 l.children.(lk);
          parent.payloads.(idx - 1) <- encode_entry t parent (value_at t l (lk - 1)) None;
          l.payloads <- array_remove l.payloads (lk - 1);
          l.children <- array_remove l.children lk
    end
    else begin
      (* merge child with a sibling; normalise to (left, right) pair *)
      let lidx, l, r =
        match left with
        | Some l -> (idx - 1, l, child)
        | None -> (idx, child, Option.get right)
      in
      (match l.nkind with
      | Leaf ->
          l.payloads <-
            Array.append l.payloads (Array.map (fun p -> reencode t r l p) r.payloads);
          l.next <- r.next
      | Inner ->
          let sep = value_at t parent lidx in
          l.payloads <-
            Array.concat
              [
                l.payloads;
                [| encode_entry t l sep None |];
                Array.map (fun p -> reencode t r l p) r.payloads;
              ];
          l.children <- Array.append l.children r.children);
      parent.payloads <- array_remove parent.payloads lidx;
      parent.children <- array_remove parent.children (lidx + 1);
      free_node t r.row
    end
  end

let delete t probe ~table_row =
  (* [del row] returns true iff one matching entry was removed below [row]. *)
  let rec del row =
    let n = get_node t row in
    match n.nkind with
    | Leaf ->
        let found = ref None in
        Array.iteri
          (fun i p ->
            if !found = None then
              match t.tree_codec.decode (ctx_of t n) p with
              | Ok (v, Some r) when Value.equal v probe && r = table_row -> found := Some i
              | Ok _ -> ()
              | Error e -> raise (Integrity (Printf.sprintf "node %d slot %d: %s" n.row i e)))
          n.payloads;
        (match !found with
        | Some i -> n.payloads <- array_remove n.payloads i
        | None -> ());
        !found <> None
    | Inner ->
        (* duplicates may straddle separators equal to the probe: try every
           candidate subtree left to right until one succeeds *)
        let k = Array.length n.payloads in
        let first = child_for_find t n probe in
        let rec try_child idx =
          if idx > k then false
          else if idx > first && idx <= k && Value.compare probe (value_at t n (idx - 1)) < 0 then
            false
          else if del n.children.(idx) then begin
            fix_child t n idx;
            true
          end
          else try_child (idx + 1)
        in
        try_child first
  in
  let removed = del t.root in
  if removed then begin
    t.size <- t.size - 1;
    let root = get_node t t.root in
    if root.nkind = Inner && Array.length root.payloads = 0 then begin
      let only_child = root.children.(0) in
      free_node t root.row;
      t.root <- only_child
    end
  end;
  removed

(* --- inspection ------------------------------------------------------ *)

type node_view = {
  row : int;
  node_kind : kind;
  payloads : string array;
  children : int array;
  next : int option;
}

let root t = t.root

let node_view t row =
  let n = get_node t row in
  {
    row = n.row;
    node_kind = n.nkind;
    payloads = Array.copy n.payloads;
    children = Array.copy n.children;
    next = (if n.next >= 0 then Some n.next else None);
  }

let nnodes t =
  Vec.fold_left (fun acc n -> match n with Some _ -> acc + 1 | None -> acc) 0 t.nodes

let iter_nodes f t =
  Vec.iteri (fun row n -> match n with Some _ -> f (node_view t row) | None -> ()) t.nodes

let set_payload t ~row ~slot payload =
  let n = get_node t row in
  if slot < 0 || slot >= Array.length n.payloads then
    invalid_arg "Bptree.set_payload: slot out of range";
  n.payloads.(slot) <- payload

let set_children t ~row children =
  let n = get_node t row in
  if n.nkind <> Inner then invalid_arg "Bptree.set_children: not an inner node";
  if Array.length children <> Array.length n.children then
    invalid_arg "Bptree.set_children: arity mismatch";
  n.children <- Array.copy children

let set_next t ~row next =
  let n = get_node t row in
  if n.nkind <> Leaf then invalid_arg "Bptree.set_next: not a leaf";
  n.next <- (match next with Some nx -> nx | None -> -1)

(* --- validation ------------------------------------------------------ *)

let validate t =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let rec check row depth ~is_root : int * Value.t option * Value.t option =
    (* returns (leaf depth, min value, max value) of the subtree *)
    let n = get_node t row in
    let k = Array.length n.payloads in
    if (not is_root) && k < min_keys t then
      err "node %d underfull: %d < %d" row k (min_keys t);
    if k > t.order then err "node %d overfull: %d > %d" row k t.order;
    let values = Array.init k (fun i -> value_at t n i) in
    for i = 0 to k - 2 do
      if Value.compare values.(i) values.(i + 1) > 0 then
        err "node %d not sorted at slot %d" row i
    done;
    match n.nkind with
    | Leaf ->
        ( depth,
          (if k > 0 then Some values.(0) else None),
          if k > 0 then Some values.(k - 1) else None )
    | Inner ->
        if Array.length n.children <> k + 1 then
          err "inner node %d has %d children for %d keys" row (Array.length n.children) k;
        if is_root && k = 0 then err "inner root %d is empty" row;
        let depths = ref [] in
        let submin = ref None and submax = ref None in
        Array.iteri
          (fun i child ->
            let d, mn, mx = check child (depth + 1) ~is_root:false in
            depths := d :: !depths;
            if i = 0 then submin := mn;
            if i = Array.length n.children - 1 then submax := mx;
            (* separator bounds: max(subtree_i) <= sep_i <= min(subtree_{i+1}) *)
            if i < k then begin
              match mx with
              | Some mx when Value.compare mx values.(i) > 0 ->
                  err "node %d: separator %d below left subtree max" row i
              | _ -> ()
            end;
            if i > 0 then
              match mn with
              | Some mn when Value.compare mn values.(i - 1) < 0 ->
                  err "node %d: separator %d above right subtree min" row (i - 1)
              | _ -> ())
          n.children;
        (match List.sort_uniq Int.compare !depths with
        | [] | [ _ ] -> ()
        | _ -> err "node %d: children at differing leaf depths" row);
        (List.hd !depths, !submin, !submax)
  in
  (try ignore (check t.root 0 ~is_root:true)
   with Integrity e -> err "integrity failure during validation: %s" e);
  (* leaf chain must visit exactly the leaves, in key order *)
  let chain = ref [] in
  let rec walk row =
    let n = get_node t row in
    chain := row :: !chain;
    if n.next >= 0 then walk n.next
  in
  (try walk (first_leaf t) with Invalid_argument e -> err "broken leaf chain: %s" e);
  let total =
    List.fold_left (fun acc row -> acc + Array.length (get_node t row).payloads) 0 !chain
  in
  if total <> t.size then err "leaf chain holds %d entries, size says %d" total t.size;
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

(* --- snapshots -------------------------------------------------------- *)

type snapshot = {
  snap_id : int;
  snap_order : int;
  snap_root : int;
  snap_size : int;
  snap_slots : node_view option array;
}

let snapshot t =
  let slots =
    Array.init (Vec.length t.nodes) (fun row ->
        match Vec.get t.nodes row with Some _ -> Some (node_view t row) | None -> None)
  in
  { snap_id = t.tree_id; snap_order = t.order; snap_root = t.root; snap_size = t.size;
    snap_slots = slots }

let of_snapshot ~codec snap =
  if snap.snap_order < 2 then Error "snapshot: order must be >= 2"
  else begin
    let n = Array.length snap.snap_slots in
    let resolve label row =
      if row < 0 || row >= n || snap.snap_slots.(row) = None then
        Error (Printf.sprintf "snapshot: %s reference to missing node %d" label row)
      else Ok ()
    in
    let check_slot acc = function
      | None -> acc
      | Some (v : node_view) ->
          let acc =
            Array.fold_left
              (fun acc child -> match acc with Error _ -> acc | Ok () -> resolve "child" child)
              acc v.children
          in
          (match (acc, v.next) with
          | Ok (), Some nx -> resolve "sibling" nx
          | _ -> acc)
    in
    match
      match Array.fold_left check_slot (Ok ()) snap.snap_slots with
      | Error e -> Error e
      | Ok () -> resolve "root" snap.snap_root
    with
    | Error e -> Error e
    | Ok () ->
        let t =
          { tree_id = snap.snap_id; order = snap.snap_order; tree_codec = codec;
            nodes = Vec.create (); root = snap.snap_root; size = snap.snap_size }
        in
        Array.iteri
          (fun row slot ->
            let node =
              Option.map
                (fun (v : node_view) ->
                  { row; nkind = v.node_kind; payloads = Array.copy v.payloads;
                    children = Array.copy v.children;
                    next = (match v.next with Some nx -> nx | None -> -1) })
                slot
            in
            ignore (Vec.push t.nodes node))
          snap.snap_slots;
        Ok t
  end
