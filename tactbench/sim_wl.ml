(* The sim_sharded workload: fixed-size sharded simulations drained with
   Sharded.run at jobs = nproc, one fresh system per round. *)

open Tact_replica
module S = Sim_load

(* Accesses per round. *)
let total = 48_000

type round = {
  setup_s : float;
  run_s : float;
  peak_mb : float;
  msgs : int;
  bytes : int;
  svc : float -> float;  (* quantile of the round's service times, µs *)
  errors : string list;
}

let untraced_round ctx i =
  let seed = (ctx.Wl.seed * 1000) + i in
  (* Each round starts from a collected heap and reads its own peak. *)
  Gc.full_major ();
  Fleet.reset_self_hwm ();
  let t0 = Unix.gettimeofday () in
  let sim = S.build ~seed ~total in
  let setup_s = Unix.gettimeofday () -. t0 in
  let t1 = Unix.gettimeofday () in
  Sharded.run ~jobs:ctx.Wl.nproc ~until:sim.S.horizon sim.S.sh;
  let run_s = Unix.gettimeofday () -. t1 in
  let peak_mb = Fleet.self_hwm_mb () in
  let errors = S.check sim in
  let tr = Sharded.traffic sim.S.sh in
  let service = Samples.create () in
  Array.iter (Samples.append service) sim.S.service;
  (* Keep only the quantiles the report reads, so the samples of earlier
     rounds do not grow the heap that later rounds measure. *)
  let sorted = Samples.sorted service in
  let kept = List.map (fun p -> (p, Samples.quantile_sorted sorted p)) [ 0.5; 0.9; 0.99; 0.999 ] in
  let svc p = List.assoc p kept in
  { setup_s; run_s; peak_mb; msgs = tr.Tact_sim.Net.messages; bytes = tr.Tact_sim.Net.bytes; svc; errors }

(* Figures are taken per round and averaged over rounds.  Round times here
   fall into two levels from one round to the next (on a 2-core host, with
   the pool's domains outnumbering the cores), and the mean of the rounds
   moves less between runs than their median, which jumps between the two
   levels. *)
let untraced ctx =
  let rounds = Wl.rounds ctx ~min_rounds:3 (untraced_round ctx) in
  let avg f = Samples.mean_list (List.map f rounds) in
  let q p r = r.svc p in
  let per_op x = float_of_int x /. float_of_int total in
  let metrics =
    [
      Report.m "setup_s" "s" (avg (fun r -> r.setup_s));
      Report.m "ops_s" "1/s" (avg (fun r -> float_of_int total /. r.run_s));
      Report.m "p50_us" "us" (avg (q 0.50));
      Report.m "peak_rss_mb" "MB" (avg (fun r -> r.peak_mb));
      Report.m "msgs_per_op" "count" (avg (fun r -> per_op r.msgs));
    ]
  in
  let extra =
    [
      Report.m "p90_us" "us" (avg (q 0.90));
      Report.m "p99_us" "us" (avg (q 0.99));
      Report.m "p999_us" "us" (avg (q 0.999));
      Report.m "rounds" "count" (float_of_int (List.length rounds));
      Report.m "jobs" "count" (float_of_int ctx.Wl.nproc);
      Report.m "run_s" "s" (avg (fun r -> r.run_s));
      Report.m "bytes_per_op" "B" (avg (fun r -> per_op r.bytes));
    ]
  in
  let n = List.length rounds * total in
  let series name f = (name, List.map f rounds) in
  {
    Wl.metrics;
    extra;
    attempted = n;
    failed = 0;
    errors = List.concat_map (fun r -> r.errors) rounds;
    series =
      [
        series "setup_s" (fun r -> r.setup_s);
        series "ops_s" (fun r -> float_of_int total /. r.run_s);
        series "p50_us" (q 0.5);
        series "p90_us" (q 0.9);
        series "peak_rss_mb" (fun r -> r.peak_mb);
      ];
  }

(* ---- the traced run ------------------------------------------------------ *)

module Engine = Tact_sim.Engine
module Pool = Tact_util.Pool

(* Two passes over the same seeded system.  The jobs = 1 pass runs
   System.prepare, Engine.run on each shard and System.collect_returns in
   spans; the jobs = nproc pass drains the shard engines with
   Pool.map_array, one span per task tagged with its domain.  Both must end
   in byte-identical digests. *)
let traced ctx =
  let seed = ctx.Wl.seed * 1000 in
  let spans = Spans.create ~on:true in
  let per_op x = float_of_int x /. float_of_int total in
  (* jobs = 1 *)
  let a = S.build ~seed ~total in
  let subs = Array.init S.shards (Sharded.sub a.S.sh) in
  let engines = Array.init S.shards (fun s -> Sharded.engine a.S.sh ~shard:s) in
  let gc0 = Gc.quick_stat () in
  Array.iteri (fun s sys -> Spans.span spans ~op:s "system.prepare" (fun () -> System.prepare sys)) subs;
  let busy =
    Array.mapi
      (fun s eng ->
        let t0 = Samples.now_ns () in
        Spans.span spans ~op:s "engine.run" (fun () -> Engine.run ~until:a.S.horizon eng);
        float_of_int (Samples.now_ns () - t0) /. 1e9)
      engines
  in
  Array.iteri
    (fun s sys -> Spans.span spans ~op:s "system.collect_returns" (fun () -> System.collect_returns sys))
    subs;
  let gc1 = Gc.quick_stat () in
  let errors_a = S.check a in
  let digest_a = Sharded.digest a.S.sh in
  let events = Array.fold_left (fun acc e -> acc + Engine.events_executed e) 0 engines in
  let traffic = Sharded.traffic a.S.sh in
  let st = Sharded.total_stats a.S.sh in
  (* jobs = nproc *)
  let jobs = ctx.Wl.nproc in
  let b = S.build ~seed ~total in
  let engines_b = Array.init S.shards (fun s -> Sharded.engine b.S.sh ~shard:s) in
  Array.iter System.prepare (Array.init S.shards (Sharded.sub b.S.sh));
  let gcev = Gcev.create () in
  let tasks, wall =
    Pool.with_pool ~jobs (fun pool ->
        Gcev.reset gcev;
        let t0 = Samples.now_ns () in
        let tasks =
          Pool.map_array pool
            (fun eng ->
              let s0 = Samples.now_ns () in
              Engine.run ~until:b.S.horizon eng;
              (s0, Samples.now_ns (), (Domain.self () :> int)))
            engines_b
        in
        let wall = float_of_int (Samples.now_ns () - t0) /. 1e9 in
        Gcev.poll gcev;
        (tasks, wall))
  in
  Array.iteri (fun s (t0, t1, dom) -> ignore (Spans.add spans ~op:s ~dom "pool.task" ~t0 ~t1)) tasks;
  Array.iter System.collect_returns (Array.init S.shards (Sharded.sub b.S.sh));
  let errors_b = S.check b in
  let digest_errors =
    if String.equal digest_a (Sharded.digest b.S.sh) then []
    else [ Printf.sprintf "jobs=%d digest differs from jobs=1" jobs ]
  in
  Spans.write spans
    (Filename.concat ctx.Wl.out_dir (Printf.sprintf "spans-%s-seed%d.tsv" ctx.Wl.workload ctx.Wl.seed));
  let domains = List.sort_uniq Int.compare (Array.to_list (Array.map (fun (_, _, d) -> d) tasks)) in
  let dom_busy =
    List.map
      (fun d ->
        Array.fold_left
          (fun acc (t0, t1, d') -> if d' = d then acc +. (float_of_int (t1 - t0) /. 1e9) else acc)
          0.0 tasks)
      domains
  in
  let mean l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l)) in
  let maxl l = List.fold_left Float.max 0.0 l in
  let minor = Gcev.minor_by_domain gcev in
  let busy_l = Array.to_list busy in
  let metrics =
    List.mapi (fun s b -> Report.m (Printf.sprintf "shard.%d.busy_s" s) "s" b) busy_l
    @ [
        Report.m "shard.imbalance" "ratio" (maxl busy_l /. mean busy_l);
        Report.m "pool.wall_s" "s" wall;
        (* Useful work (the shards' jobs = 1 busy time) over the capacity
           of [jobs] domains for the parallel wall time. *)
        Report.m "pool.efficiency" "ratio" (List.fold_left ( +. ) 0.0 busy_l /. (float_of_int jobs *. wall));
        Report.m "pool.domain_busy_s" "s" (mean dom_busy);
        Report.m "pool.domain_busy_s_max" "s" (maxl dom_busy);
        Report.m "gc.minor_pause_s" "s" (mean minor);
        Report.m "gc.minor_pause_s_max" "s" (maxl minor);
        Report.m "gc.major_pause_s" "s" (Gcev.major_s gcev);
        Report.m "gc.minor_words_per_op" "words" ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int total);
        Report.m "gc.major_collections" "count" (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        Report.m "gc.top_heap_mb" "MB" (float_of_int (gc1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0);
        Report.m "engine.events_per_op" "count" (per_op events);
        Report.m "net.messages_per_op" "count" (per_op traffic.Tact_sim.Net.messages);
        Report.m "net.bytes_per_op" "B" (per_op traffic.Tact_sim.Net.bytes);
        Report.m "batch.frames_per_op" "count" (per_op st.Replica.batches);
        Report.m "replica.pushes_budget_per_op" "count" (per_op st.Replica.pushes_budget);
        Report.m "replica.pulls_st_per_op" "count" (per_op st.Replica.pulls_st);
        Report.m "replica.parked_share" "ratio" (per_op st.Replica.blocked_accesses);
        Report.m "replica.timeouts" "count" (float_of_int st.Replica.timeouts);
      ]
  in
  let extra =
    [
      Report.m "jobs" "count" (float_of_int jobs);
      Report.m "pool.domains_used" "count" (float_of_int (List.length domains));
      Report.m "pool.gap_s" "s" (wall -. maxl dom_busy);
      Report.m "pool.task_busy_s" "s" (List.fold_left ( +. ) 0.0 dom_busy);
      Report.m "jobs1.wall_s" "s" (List.fold_left ( +. ) 0.0 busy_l);
      Report.m "gc.events_lost" "count" (float_of_int !(gcev.Gcev.lost));
    ]
  in
  {
    Wl.metrics;
    extra;
    attempted = 2 * total;
    failed = 0;
    errors = errors_a @ errors_b @ digest_errors;
    series = [];
  }
