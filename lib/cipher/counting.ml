type counters = { mutable enc_calls : int; mutable dec_calls : int }

let wrap (c : Block.t) =
  let counters = { enc_calls = 0; dec_calls = 0 } in
  (* the bulk kernels run on the _into path, so it must be counted too —
     otherwise EXP8's invocation counts would miss every bulk call *)
  let enc_into = Block.encrypt_into c and dec_into = Block.decrypt_into c in
  let wrapped =
    Block.v
      ~name:(c.Block.name ^ "+counted")
      ~block_size:c.Block.block_size
      ~encrypt:(fun b ->
        counters.enc_calls <- counters.enc_calls + 1;
        c.Block.encrypt b)
      ~decrypt:(fun b ->
        counters.dec_calls <- counters.dec_calls + 1;
        c.Block.decrypt b)
      ~encrypt_into:(fun src ~src_off dst ~dst_off ->
        counters.enc_calls <- counters.enc_calls + 1;
        enc_into src ~src_off dst ~dst_off)
      ~decrypt_into:(fun src ~src_off dst ~dst_off ->
        counters.dec_calls <- counters.dec_calls + 1;
        dec_into src ~src_off dst ~dst_off)
      ()
  in
  (wrapped, counters)

let reset c =
  c.enc_calls <- 0;
  c.dec_calls <- 0

let total c = c.enc_calls + c.dec_calls

let count_enc c f =
  let wrapped, counters = wrap c in
  let r = f wrapped in
  (counters.enc_calls, r)
