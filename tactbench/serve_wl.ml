(* The served workload, serve_write, driven through three tact_serve
   daemons on loopback.  Each round spawns a fresh fleet, waits for the
   full peer mesh, runs a fixed amount of load from one process, checks
   every replica's totals, reads each daemon's peak memory, and drains the
   fleet. *)

module L = Serve_load

let n = 3

(* The latency limit behind slo_miss_rate, µs. *)
let slo_us = 50_000.0

(* 2 connections x 4000 weak submits per round.  Nothing commits (no
   gossip, no bounded reads), so each access record captures the whole
   tentative suffix: memory and time grow with writes squared, and the
   round size fixes how far that growth gets. *)
let per_conn = 4000

let nconns ctx = max 1 (min 2 ctx.Wl.nproc)

type round = {
  setup_s : float;
  load_s : float;
  ops : int;
  peak_mb : float;
  frames : int;
  res : L.result;
  errors : string list;
}

let daemon_round ctx i =
  let rng = Tact_util.Prng.create ~seed:((ctx.Wl.seed * 1000) + i) in
  let t0 = Unix.gettimeofday () in
  let fleet = Fleet.spawn ~exe:ctx.Wl.serve_exe ~out_dir:ctx.Wl.out_dir ~n ~first:0 ~seed:ctx.Wl.seed in
  Fleet.wait_ready fleet;
  let setup_s = Unix.gettimeofday () -. t0 in
  let conns = List.init (nconns ctx) (fun c -> L.open_conn (Fleet.client_port fleet c)) in
  let res = L.create_result () in
  let t1 = Unix.gettimeofday () in
  L.closed_loop conns ~rng ~per_conn res;
  let load_s = Unix.gettimeofday () -. t1 in
  List.iter (fun c -> Unix.close c.L.fd) conns;
  let errors =
    L.check_totals ~loop:(Tact_transport.Loop.create ()) ~ports:(List.init n (Fleet.client_port fleet))
      ~applied:res.L.applied ()
  in
  let peak_mb = Fleet.peak_mb fleet in
  let finals = Fleet.stop fleet in
  let errors =
    errors
    @ List.concat
        (List.mapi
           (fun id f ->
             match f with
             | None -> [ Printf.sprintf "daemon %d did not drain cleanly" id ]
             | Some f when f.Fleet.malformed <> 0 -> [ Printf.sprintf "daemon %d saw malformed frames" id ]
             | Some f when f.Fleet.parked_drops <> 0 -> [ Printf.sprintf "daemon %d dropped parked frames" id ]
             | Some _ -> [])
           finals)
  in
  (* Peer frames of the whole round, from the daemons' final status lines:
     the peer-up resync, anything the load sends, and the pull rounds of
     the output check.  Weak submits under the default config send no peer
     frames, so today this is the resync and check traffic alone. *)
  let frames =
    List.fold_left (fun acc f -> acc + match f with Some f -> f.Fleet.sent_frames | None -> 0) 0 finals
  in
  { setup_s; load_s; ops = Samples.count res.L.lat; peak_mb; frames; res; errors = errors @ List.rev res.L.errors }

(* Latency percentiles are taken per round and reported as the median over
   rounds, so a round that a noisy neighbour slowed moves them little. *)
let round_quantile q r = Samples.quantile r.res.L.lat q

let untraced ctx =
  let rounds = Wl.rounds ctx ~min_rounds:3 (daemon_round ctx) in
  let med f = Samples.median_list (List.map f rounds) in
  let all = Samples.create () in
  List.iter (fun r -> Samples.append all r.res.L.lat) rounds;
  let attempted = List.fold_left (fun acc r -> acc + r.res.L.attempted) 0 rounds in
  let failed = List.fold_left (fun acc r -> acc + r.res.L.failed) 0 rounds in
  let metrics =
    [
      Report.m "setup_s" "s" (med (fun r -> r.setup_s));
      Report.m "ops_s" "1/s" (med (fun r -> float_of_int r.ops /. r.load_s));
      Report.m "p50_us" "us" (med (round_quantile 0.50));
      Report.m "peak_rss_mb" "MB" (med (fun r -> r.peak_mb));
      Report.m "msgs_per_op" "count" (med (fun r -> float_of_int r.frames /. float_of_int (max 1 r.ops)));
    ]
  in
  let q = Samples.sorted all in
  let extra =
    [
      Report.m "p90_us" "us" (med (round_quantile 0.90));
      Report.m "p99_us" "us" (med (round_quantile 0.99));
      Report.m "p999_us" "us" (med (round_quantile 0.999));
      Report.m "rounds" "count" (float_of_int (List.length rounds));
      Report.m "samples" "count" (float_of_int (Array.length q));
      Report.m "submit_p50_us" "us" (Samples.quantile_sorted q 0.5);
      Report.m "submit_p99_us" "us" (Samples.quantile_sorted q 0.99);
      Report.m "error_rate" "ratio" (float_of_int failed /. float_of_int (max 1 attempted));
      Report.m "slo_miss_rate" "ratio"
        (float_of_int (failed + Samples.count_above all slo_us) /. float_of_int (max 1 attempted));
    ]
  in
  let series name f = (name, List.map f rounds) in
  {
    Wl.metrics;
    extra;
    attempted;
    failed;
    errors = List.concat_map (fun r -> r.errors) rounds;
    series =
      [
        series "setup_s" (fun r -> r.setup_s);
        series "ops_s" (fun r -> float_of_int r.ops /. r.load_s);
        series "p50_us" (round_quantile 0.5);
        series "p90_us" (round_quantile 0.9);
        series "p99_us" (round_quantile 0.99);
        series "peak_rss_mb" (fun r -> r.peak_mb);
      ];
  }

(* ---- the traced run ---------------------------------------------------- *)

module Tcp = Tact_transport.Tcp
module Replica = Tact_replica.Replica
module Wlog = Tact_store.Wlog

type twin_pass = {
  ip : Twin.inproc;
  sock_res : L.result;
  spans : Spans.t;
  iters : int;
  stats : Replica.stats;
  frames : int;
  frame_bytes : int;
  known : int;
  committed : int;
  records_words : int;
  top_heap_words : int;
  major_collections : int;
  minor_words : float;
  major_pause_s : float;
  minor_pause_s : float;
  minor_pause_max_s : float;  (* the most any one domain spent *)
  pass_errors : string list;
}

(* One pass with the twin as replica 0 and tact_serve daemons 1 and 2.
   The load uses the same seed as the daemon pass's first round. *)
let twin_pass ctx ~traced ~gcev =
  let rng = Tact_util.Prng.create ~seed:(ctx.Wl.seed * 1000) in
  let fleet = Fleet.spawn ~exe:ctx.Wl.serve_exe ~out_dir:ctx.Wl.out_dir ~n ~first:1 ~seed:ctx.Wl.seed in
  let spans = Spans.create ~on:false in
  let tw = Twin.create ~spans ~peer_addrs:(Fleet.peer_addrs fleet) ~seed:ctx.Wl.seed in
  let pump () = ignore (Tact_transport.Loop.run_once ~max_wait:0.001 tw.Twin.loop) in
  Fleet.wait_ready ~pump fleet;
  let deadline = Unix.gettimeofday () +. 20.0 in
  while Twin.peers_up tw < n - 1 do
    if Unix.gettimeofday () > deadline then Fleet.setup_fail "twin never saw all peers";
    pump ()
  done;
  let ip = Twin.create_inproc tw in
  let sock = Twin.open_sock tw (Fleet.client_port fleet 1) in
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  Option.iter Gcev.reset gcev;
  spans.Spans.on <- traced;
  let iters = Twin.closed_loop tw ip sock ~rng ~per_conn in
  spans.Spans.on <- false;
  let gc1 = Gc.quick_stat () in
  Option.iter Gcev.poll gcev;
  Twin.close_sock tw sock;
  (* Replica, wlog and transport figures describe the load phase: read
     them before the check's pull rounds commit everything. *)
  let r = tw.Twin.replica in
  let ts = Tcp.stats tw.Twin.tcp in
  let log = Replica.log r in
  let stats = Replica.stats r in
  let frames = ts.Tcp.sent_frames + ts.Tcp.recv_frames in
  let frame_bytes = ts.Tcp.sent_bytes + ts.Tcp.recv_bytes in
  let known = Wlog.num_known log and committed = Wlog.committed_count log in
  let records_words = if traced then Obj.reachable_words (Obj.repr (Replica.records r)) else 0 in
  let applied = Array.mapi (fun j a -> a + sock.Twin.sres.L.applied.(j)) ip.Twin.res.L.applied in
  let errors =
    L.check_totals ~loop:tw.Twin.loop
      ~local:(fun req respond -> Twin.handle tw ~op:(-1) req ~respond)
      ~ports:[ Fleet.client_port fleet 1; Fleet.client_port fleet 2 ]
      ~applied ()
  in
  let pass =
    {
      ip;
      sock_res = sock.Twin.sres;
      spans;
      iters;
      stats;
      frames;
      frame_bytes;
      known;
      committed;
      records_words;
      top_heap_words = gc1.Gc.top_heap_words;
      major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      major_pause_s = (match gcev with Some g -> Gcev.major_s g | None -> 0.0);
      minor_pause_s = (match gcev with Some g -> Gcev.minor_s g | None -> 0.0);
      minor_pause_max_s =
        (match gcev with Some g -> List.fold_left Float.max 0.0 (Gcev.minor_by_domain g) | None -> 0.0);
      pass_errors = errors @ List.rev ip.Twin.res.L.errors @ List.rev sock.Twin.sres.L.errors;
    }
  in
  Twin.close tw;
  ignore (Fleet.stop fleet);
  pass

(* Per-layer figures from the traced pass's spans. *)
let span_metrics (p : twin_pass) =
  let sp = p.spans in
  let self = Spans.self_times sp in
  let by_name name f =
    let s = Samples.create () in
    Spans.iter sp (fun i -> if sp.Spans.name.(i) = name then Samples.add s (f i));
    s
  in
  let p50 s = Report.finite (Samples.quantile s 0.5) in
  let med name f = p50 (by_name name f) in
  let ops = Array.of_list (List.rev p.ip.Twin.ops) in
  let nops = float_of_int (max 1 (Array.length ops)) in
  (* Per op: self time of its own spans, and the part of its latency no
     span of its own covers. *)
  let own_self = Array.make (Array.length ops) 0 and own_top = Array.make (Array.length ops) 0 in
  Spans.iter sp (fun i ->
      let op = sp.Spans.op.(i) in
      if op >= 0 && op < Array.length ops then begin
        own_self.(op) <- own_self.(op) + self.(i);
        let par = sp.Spans.parent.(i) in
        if par < 0 || sp.Spans.op.(par) <> op then own_top.(op) <- own_top.(op) + Spans.dur sp i
      end);
  let self_s = Samples.create () and unattr = Samples.create () in
  Array.iteri
    (fun i o ->
      Samples.add self_s (Samples.us_of_ns own_self.(i));
      Samples.add unattr (Samples.us_of_ns (o.Twin.o_end - o.Twin.o_sent - own_top.(i))))
    ops;
  (* The loop: run_once self time is select wait (idle); its children are
     replica work (busy), except the load generator's own socket. *)
  let busy = ref 0 and idle = ref 0 in
  Spans.iter sp (fun i ->
      if sp.Spans.name.(i) = "loop.run_once" then idle := !idle + self.(i)
      else
        let par = sp.Spans.parent.(i) in
        if par >= 0 && sp.Spans.name.(par) = "loop.run_once" && sp.Spans.name.(i) <> "gen.socket" then
          busy := !busy + Spans.dur sp i);
  let submit_self = Samples.create () in
  Spans.iter sp (fun i ->
      let nm = sp.Spans.name.(i) in
      if nm = "replica.submit_write" || nm = "replica.submit_read" then
        Samples.add submit_self (Samples.us_of_ns self.(i)));
  let st = p.stats in
  let dur_ns i = float_of_int (Spans.dur sp i) in
  [
    Report.m "client.encode_ns" "ns" (med "client.encode_response" dur_ns);
    Report.m "client.decode_ns" "ns" (med "client.decode_request" dur_ns);
    Report.m "loop.iters_per_op" "count" (float_of_int p.iters /. nops);
    Report.m "loop.busy_us_per_op" "us" (Samples.us_of_ns !busy /. nops);
    Report.m "loop.idle_us_per_op" "us" (Samples.us_of_ns !idle /. nops);
    Report.m "replica.submit_us" "us" (p50 submit_self);
    Report.m "replica.parked_share" "ratio" (float_of_int st.Replica.blocked_accesses /. nops);
    Report.m "replica.pulls_st_per_op" "count" (float_of_int st.Replica.pulls_st /. nops);
    Report.m "replica.timeouts" "count" (float_of_int st.Replica.timeouts);
    Report.m "replica.records_words_per_op" "words" (float_of_int p.records_words /. nops);
    Report.m "tcp.frames_per_op" "count" (float_of_int p.frames /. nops);
    Report.m "tcp.bytes_per_frame" "B"
      (if p.frames = 0 then 0.0 else float_of_int p.frame_bytes /. float_of_int p.frames);
    Report.m "wlog.tentative_end" "count" (float_of_int (p.known - p.committed));
    Report.m "wlog.committed_share" "ratio"
      (if p.known = 0 then 0.0 else float_of_int p.committed /. float_of_int p.known);
    Report.m "trace.self_p50_us" "us" (p50 self_s);
    Report.m "trace.unattributed_p50_us" "us" (p50 unattr);
    Report.m "gc.top_heap_mb" "MB" (float_of_int (p.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
    Report.m "gc.major_collections" "count" (float_of_int p.major_collections);
    Report.m "gc.major_pause_s" "s" p.major_pause_s;
    Report.m "gc.minor_pause_s" "s" p.minor_pause_s;
    Report.m "gc.minor_pause_s_max" "s" p.minor_pause_max_s;
    Report.m "gc.minor_words_per_op" "words" (p.minor_words /. nops);
    Report.m "replica.pushes_budget_per_op" "count" (float_of_int st.Replica.pushes_budget /. nops);
  ]

let traced ctx =
  let daemon = daemon_round ctx 0 in
  (* The first untraced pass starts from a fresh heap, as a daemon does:
     it is the parity figure.  The overhead compares the traced pass with
     a second untraced pass that, like it, reuses a grown heap. *)
  let untraced = twin_pass ctx ~traced:false ~gcev:None in
  let gcev = Gcev.create () in
  let traced = twin_pass ctx ~traced:true ~gcev:(Some gcev) in
  let warm = twin_pass ctx ~traced:false ~gcev:None in
  Spans.write traced.spans
    (Filename.concat ctx.Wl.out_dir (Printf.sprintf "spans-%s-seed%d.tsv" ctx.Wl.workload ctx.Wl.seed));
  (* Latencies run from sending a request to its answer. *)
  let p50 (r : L.result) = Samples.quantile r.L.lat 0.5 in
  let twin_p50 = p50 untraced.ip.Twin.res and traced_p50 = p50 traced.ip.Twin.res in
  let warm_p50 = p50 warm.ip.Twin.res in
  let metrics =
    span_metrics traced
    @ [
        Report.m "twin.p50_us" "us" twin_p50;
        Report.m "twin.traced_p50_us" "us" traced_p50;
        Report.m "trace.overhead_us" "us" (traced_p50 -. warm_p50);
        Report.m "daemon.p50_us" "us" (p50 daemon.res);
      ]
  in
  let extra =
    [
      Report.m "twin.ops" "count" (float_of_int (List.length traced.ip.Twin.ops));
      Report.m "twin.warm_p50_us" "us" warm_p50;
      Report.m "twin.socket_p50_us" "us" (p50 untraced.sock_res);
      Report.m "spans" "count" (float_of_int traced.spans.Spans.len);
      Report.m "gc.events_lost" "count" (float_of_int !(gcev.Gcev.lost));
    ]
  in
  let count (r : L.result) = (r.L.attempted, r.L.failed) in
  let sum = List.fold_left (fun (a, f) (a', f') -> (a + a', f + f')) (0, 0) in
  let attempted, failed =
    sum
      (count daemon.res
      :: List.concat_map (fun p -> [ count p.ip.Twin.res; count p.sock_res ]) [ untraced; traced; warm ])
  in
  {
    Wl.metrics;
    extra;
    attempted;
    failed;
    errors = daemon.errors @ untraced.pass_errors @ traced.pass_errors @ warm.pass_errors;
    series = [];
  }
