type counters = {
  mutable encodes : int;
  mutable decodes : int;
  mutable decode_failures : int;
}

let wrap (c : Bptree.codec) =
  let counters = { encodes = 0; decodes = 0; decode_failures = 0 } in
  let wrapped =
    {
      Bptree.codec_name = c.Bptree.codec_name ^ "+counted";
      encode =
        (fun ctx ~value ~table_row ->
          counters.encodes <- counters.encodes + 1;
          c.Bptree.encode ctx ~value ~table_row);
      decode =
        (fun ctx payload ->
          counters.decodes <- counters.decodes + 1;
          let r = c.Bptree.decode ctx payload in
          (match r with
          | Error _ -> counters.decode_failures <- counters.decode_failures + 1
          | Ok _ -> ());
          r);
      decode_unverified = c.Bptree.decode_unverified;
    }
  in
  (wrapped, counters)

let reset c =
  c.encodes <- 0;
  c.decodes <- 0;
  c.decode_failures <- 0
