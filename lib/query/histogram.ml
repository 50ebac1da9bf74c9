module Value = Secdb_db.Value

let to_float = function
  | Value.Null -> None
  | Value.Bool b -> Some (if b then 1.0 else 0.0)
  | Value.Int i -> Some (Int64.to_float i)
  | Value.Text s | Value.Bytes s ->
      (* lexicographic position from the first 6 bytes *)
      let acc = ref 0.0 and scale = ref 1.0 in
      for i = 0 to 5 do
        scale := !scale /. 256.0;
        let b = if i < String.length s then Char.code s.[i] else 0 in
        acc := !acc +. (float_of_int b *. !scale)
      done;
      Some !acc

type t = {
  nbuckets : int;
  mutable bootstrap : float list;  (** samples until the range is fixed *)
  mutable lo : float;
  mutable hi : float;
  mutable fixed : bool;
  counts : int array;
  mutable total : int;
}

let create ?(buckets = 32) () =
  if buckets < 1 then invalid_arg "Histogram.create: need at least one bucket";
  {
    nbuckets = buckets;
    bootstrap = [];
    lo = 0.0;
    hi = 1.0;
    fixed = false;
    counts = Array.make buckets 0;
    total = 0;
  }

let bucket_of t x =
  if t.hi <= t.lo then 0
  else
    let f = (x -. t.lo) /. (t.hi -. t.lo) in
    let b = int_of_float (f *. float_of_int t.nbuckets) in
    max 0 (min (t.nbuckets - 1) b)

let fix_range t =
  match t.bootstrap with
  | [] -> ()
  | samples ->
      t.lo <- List.fold_left min Float.infinity samples;
      t.hi <- List.fold_left max Float.neg_infinity samples;
      if t.hi <= t.lo then t.hi <- t.lo +. 1.0;
      t.fixed <- true;
      List.iter (fun x -> t.counts.(bucket_of t x) <- t.counts.(bucket_of t x) + 1) samples;
      t.bootstrap <- []

let add t v =
  match to_float v with
  | None -> ()
  | Some x ->
      t.total <- t.total + 1;
      if t.fixed then t.counts.(bucket_of t x) <- t.counts.(bucket_of t x) + 1
      else begin
        t.bootstrap <- x :: t.bootstrap;
        if List.length t.bootstrap >= 2 * t.nbuckets then fix_range t
      end

let remove t v =
  match to_float v with
  | None -> ()
  | Some x ->
      t.total <- max 0 (t.total - 1);
      if t.fixed then t.counts.(bucket_of t x) <- max 0 (t.counts.(bucket_of t x) - 1)
      else
        let rec drop_one = function
          | [] -> []
          | y :: rest -> if Float.equal y x then rest else y :: drop_one rest
        in
        t.bootstrap <- drop_one t.bootstrap

let total t = t.total

let selectivity t ~lo ~hi =
  if t.total = 0 then 1.0
  else begin
    if not t.fixed then fix_range t;
    if not t.fixed then 1.0
    else begin
      let flo = Option.bind lo to_float and fhi = Option.bind hi to_float in
      let b_lo = match flo with Some x -> bucket_of t x | None -> 0 in
      let b_hi = match fhi with Some x -> bucket_of t x | None -> t.nbuckets - 1 in
      if b_hi < b_lo then 0.0
      else begin
        let mass = ref 0 in
        for b = b_lo to b_hi do
          mass := !mass + t.counts.(b)
        done;
        float_of_int !mass /. float_of_int t.total
      end
    end
  end

let of_values ?buckets values =
  let t = create ?buckets () in
  let floats = List.filter_map to_float values in
  (match floats with
  | [] -> ()
  | x :: rest ->
      t.lo <- List.fold_left min x rest;
      t.hi <- List.fold_left max x rest;
      if t.hi <= t.lo then t.hi <- t.lo +. 1.0;
      t.fixed <- true);
  List.iter (fun v -> add t v) values;
  t
