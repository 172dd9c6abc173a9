(* Golden digests: byte-level pins of whole-system outcomes.  The values
   below were recorded from the implementation before the simulator's
   per-access bookkeeping was flattened (flat event heap, Db cells,
   unboxed tallies and codec reads); that rewrite left every one of them
   unchanged.  A future change that moves either value must explain each
   move in CHANGES.md — never re-pin one silently. *)

open Tact_store
open Tact_replica
module Bounds = Tact_core.Bounds
module Engine = Tact_sim.Engine

(* A small system shaped like the sim_sharded benchmark workload: 8
   replicas, 4 shards, each replica subscribed to 2; NE-bounded conits
   pinned one per shard pair, batched anti-entropy with 0.5 s gossip, and
   20% reads bounded to 0.2 s staleness.  One access per simulated
   millisecond, drawn from [seed]. *)
let n = 8
let shards = 4
let nconits = 2 * shards
let conit_name k = Printf.sprintf "c%02d" k
let key_of_conit c = "x:" ^ c

let build ~seed ~total =
  let interest r = List.sort_uniq Int.compare [ r mod shards; (r + 1) mod shards ] in
  let config =
    {
      Config.default with
      Config.conits =
        List.init nconits (fun k -> Tact_core.Conit.declare ~ne_bound:8.0 (conit_name k));
      antientropy_period = Some 0.5;
      sync = Config.Batched;
      batch_flush = 0.05;
      record_accesses = false;
      shards;
      interest = Some interest;
    }
  in
  let router =
    Shard.with_table (Shard.by_hash ~shards)
      (List.init nconits (fun k -> (conit_name k, k mod shards)))
  in
  let topology = Tact_sim.Topology.uniform ~n ~latency:0.02 ~bandwidth:1e8 in
  let sh = Sharded.create ~seed ~jitter:0.02 ~router ~topology ~config () in
  let rng = Tact_util.Prng.create ~seed in
  for k = 0 to total - 1 do
    let c = Tact_util.Prng.int rng nconits in
    let conit = conit_name c in
    let s = Sharded.route sh conit in
    let members = Sharded.members sh s in
    let replica = members.(Tact_util.Prng.int rng (Array.length members)) in
    let is_read = Tact_util.Prng.float rng 1.0 < 0.2 in
    Engine.at (Sharded.engine sh ~shard:s)
      ~time:(0.001 *. float_of_int (k + 1))
      (fun () ->
        if is_read then
          Sharded.submit_read sh ~replica
            ~deps:[ (conit, Bounds.make ~st:0.2 ()) ]
            ~f:(fun db -> Db.get db (key_of_conit conit))
            ~k:ignore
        else
          Sharded.submit_write sh ~replica ~deps:[]
            ~affects:[ { Write.conit; nweight = 1.0; oweight = 1.0 } ]
            ~op:(Op.Add (key_of_conit conit, 1.0))
            ~k:ignore)
  done;
  (sh, (0.001 *. float_of_int total) +. 20.0)

let sharded_md5 ~jobs =
  let sh, until = build ~seed:1 ~total:4000 in
  Sharded.run ~jobs ~until sh;
  Digest.to_hex (Digest.string (Sharded.digest sh))

let sharded_golden = "81aa54c7db054cd7aa28908d37fb04c7"

let test_sharded_digest () =
  Alcotest.(check string) "jobs=1" sharded_golden (sharded_md5 ~jobs:1);
  Alcotest.(check string) "jobs=2" sharded_golden (sharded_md5 ~jobs:2)

let test_campaign_digest () =
  let s =
    Tact_nemesis.Campaign.run
      { Tact_nemesis.Campaign.default with master_seed = 1; runs = 100 }
  in
  Alcotest.(check string) "seed 1, 100 runs" "77d712083332f873"
    s.Tact_nemesis.Campaign.digest

let suite =
  [
    Alcotest.test_case "sim_sharded-shaped Sharded.digest" `Quick test_sharded_digest;
    Alcotest.test_case "campaign digest seed 1" `Quick test_campaign_digest;
  ]
