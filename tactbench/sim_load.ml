(* The sim_sharded workload: a seeded sharded system (8 replicas, 4 shards,
   each replica subscribed to 2) with NE-bounded conits, batched
   anti-entropy, gossip, and a share of staleness-bounded reads, drained
   in-process on a domain pool. *)

open Tact_store
open Tact_replica
module Bounds = Tact_core.Bounds
module Engine = Tact_sim.Engine

let n = 8
let shards = 4
let overlap = 2
let nconits = 2 * shards
let conit_name k = Printf.sprintf "c%02d" k
let key_of_conit c = "x:" ^ c
let read_share = 0.2
let read_st = 0.2

type t = {
  sh : Sharded.t;
  horizon : float;
  total : int;
  writes : int array;  (* writes submitted per conit *)
  service : Samples.t array;  (* per shard: wall µs inside each submit call *)
  completed : int array;  (* per shard: continuations fired *)
}

let config () =
  let interest r = List.sort_uniq Int.compare (List.init overlap (fun i -> (r + i) mod shards)) in
  {
    Config.default with
    Config.conits = List.init nconits (fun k -> Tact_core.Conit.declare ~ne_bound:8.0 (conit_name k));
    antientropy_period = Some 0.5;
    sync = Config.Batched;
    batch_flush = 0.05;
    record_accesses = false;
    shards;
    interest = Some interest;
  }

(* Build the system and schedule [total] accesses, one per simulated
   millisecond, drawn from [seed].  Each access runs inside a benchmark
   closure that times the submit call (the replica's service time). *)
let build ~seed ~total =
  let router =
    Shard.with_table (Shard.by_hash ~shards) (List.init nconits (fun k -> (conit_name k, k mod shards)))
  in
  let topology = Tact_sim.Topology.uniform ~n ~latency:0.02 ~bandwidth:1e8 in
  let sh = Sharded.create ~seed ~jitter:0.02 ~router ~topology ~config:(config ()) () in
  let rng = Tact_util.Prng.create ~seed in
  let writes = Array.make nconits 0 in
  let service = Array.init shards (fun _ -> Samples.create ()) in
  let completed = Array.make shards 0 in
  for k = 0 to total - 1 do
    let c = Tact_util.Prng.int rng nconits in
    let conit = conit_name c in
    let s = Sharded.route sh conit in
    let members = Sharded.members sh s in
    let replica = members.(Tact_util.Prng.int rng (Array.length members)) in
    let is_read = Tact_util.Prng.float rng 1.0 < read_share in
    if not is_read then writes.(c) <- writes.(c) + 1;
    let done_ _ = completed.(s) <- completed.(s) + 1 in
    Engine.at (Sharded.engine sh ~shard:s)
      ~time:(0.001 *. float_of_int (k + 1))
      (fun () ->
        let t0 = Samples.now_ns () in
        if is_read then
          Sharded.submit_read sh ~replica
            ~deps:[ (conit, Bounds.make ~st:read_st ()) ]
            ~f:(fun db -> Db.get db (key_of_conit conit))
            ~k:done_
        else
          Sharded.submit_write sh ~replica ~deps:[]
            ~affects:[ { Write.conit; nweight = 1.0; oweight = 1.0 } ]
            ~op:(Op.Add (key_of_conit conit, 1.0))
            ~k:done_;
        Samples.add service.(s) (Samples.us_of_ns (Samples.now_ns () - t0)))
  done;
  { sh; horizon = (0.001 *. float_of_int total) +. 20.0; total; writes; service; completed }

(* Output checks: every access completed, every shard converged with no
   cross-shard leak, and every subscribed replica holds each conit's exact
   write count. *)
let check t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  let done_ = Array.fold_left ( + ) 0 t.completed in
  if done_ <> t.total then err "%d of %d accesses completed" done_ t.total;
  if not (Sharded.converged t.sh) then err "shards did not converge";
  if Sharded.shard_leaks t.sh <> [] then err "cross-shard leaks";
  for c = 0 to nconits - 1 do
    let conit = conit_name c in
    let s = Sharded.route t.sh conit in
    Array.iter
      (fun r ->
        let got = Db.get_float (Replica.db (Sharded.replica t.sh ~shard:s r)) (key_of_conit conit) in
        if Float.abs (got -. float_of_int t.writes.(c)) > 1e-9 then
          err "replica %d %s = %g, want %d" r conit got t.writes.(c))
      (Sharded.members t.sh s)
  done;
  List.rev !errs
