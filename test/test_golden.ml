(* Golden digests: byte-level pins of whole-system outcomes.  The first two
   were recorded from the implementation before the simulator's per-access
   bookkeeping was flattened (flat event heap, Db cells, unboxed tallies and
   codec reads); that rewrite left both unchanged.  A future change that
   moves any value must explain each move in CHANGES.md — never re-pin one
   silently. *)

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

(* A plain [System] on the non-default budget paths: per-write sync, one
   conit with a relative NE bound, and writes that affect two or three
   conits, one of them with a zero numerical weight.  Reads alternate a
   tighter-than-declared NE bound (a pull round) with a staleness bound. *)
let budget_conits =
  [
    Tact_core.Conit.declare ~ne_bound:4.0 "a";
    Tact_core.Conit.declare ~ne_bound:6.0 "b";
    Tact_core.Conit.declare ~ne_rel_bound:0.05 ~initial_value:100.0 "r";
  ]

let budget_affects =
  [|
    [ ("a", 1.0, 1.0); ("r", -1.0, 1.0) ];
    [ ("a", 2.0, 1.0); ("b", 0.0, 1.0); ("r", 1.0, 1.0) ];
    [ ("b", 1.0, 1.0); ("r", 0.5, 0.0) ];
  |]

let budget_system ~policy ~seed ~total =
  let n = 5 in
  let config =
    {
      Config.default with
      Config.conits = budget_conits;
      budget_policy = policy;
      sync = Config.Per_write;
      antientropy_period = Some 1.0;
    }
  in
  let topology = Tact_sim.Topology.uniform ~n ~latency:0.03 ~bandwidth:1e8 in
  let sys = System.create ~seed ~jitter:0.1 ~topology ~config () in
  let rng = Tact_util.Prng.create ~seed in
  for k = 0 to total - 1 do
    let replica = Tact_util.Prng.int rng n in
    let shape = Tact_util.Prng.int rng (Array.length budget_affects) in
    let is_read = Tact_util.Prng.float rng 1.0 < 0.15 in
    Engine.at (System.engine sys)
      ~time:(0.004 *. float_of_int (k + 1))
      (fun () ->
        let r = System.replica sys replica in
        if is_read then
          let deps =
            if k mod 2 = 0 then [ ("a", Bounds.make ~ne:2.0 ()) ]
            else [ ("r", Bounds.make ~st:0.1 ()) ]
          in
          Replica.submit_read r ~deps ~f:(fun db -> Db.get db "x:a") ~k:ignore
        else
          let affects =
            List.map
              (fun (conit, nweight, oweight) -> { Write.conit; nweight; oweight })
              budget_affects.(shape)
          in
          Replica.submit_write r ~deps:[]
            ~affects
            ~op:(Op.Add ("x:" ^ (List.hd affects).Write.conit, 1.0))
            ~k:ignore)
  done;
  System.run ~until:((0.004 *. float_of_int total) +. 20.0) sys;
  sys

(* Databases, vectors, commit counts, protocol counters, traffic and every
   access record's times and result: budget bookkeeping moves at least the
   write return times. *)
let system_digest sys =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  for i = 0 to System.size sys - 1 do
    let r = System.replica sys i in
    let db = Replica.db r in
    add "replica %d:" i;
    List.iter
      (fun k -> add " %s=%s" k (Value.to_string (Db.get db k)))
      (List.sort String.compare (Db.keys db));
    add " vector=%s committed=%d"
      (Version_vector.to_string (Wlog.vector (Replica.log r)))
      (Wlog.committed_count (Replica.log r));
    let s = Replica.stats r in
    add " stats=%d,%d,%d,%d,%d,%d,%d,%d,%d\n" s.Replica.pushes_budget s.pulls_ne
      s.pulls_oe s.pulls_st s.gossips s.blocked_accesses s.snapshots_sent
      s.timeouts s.batches
  done;
  let tr = System.traffic sys in
  add "traffic %d %d\n" tr.Tact_sim.Net.messages tr.Tact_sim.Net.bytes;
  List.iter
    (fun (a : Tact_core.Access.t) ->
      add "%s@%d %h %h %h %s\n"
        (match a.kind with
        | Tact_core.Access.Read -> "read"
        | Tact_core.Access.Write_access id -> Write.id_to_string id)
        a.replica a.submit_time a.serve_time a.return_time
        (Value.to_string a.observed_result))
    (System.records sys);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let budget_pins ~policy =
  let sys = budget_system ~policy ~seed:7 ~total:1500 in
  let entries = ref 0 in
  for i = 0 to System.size sys - 1 do
    entries := !entries + Replica.bookkeeping_entries (System.replica sys i)
  done;
  (system_digest sys, !entries)

(* Recorded before the per-conit outstanding layout replaced the per-peer
   tallies; the rewrite of the budget bookkeeping left all four unchanged. *)
let test_budget_digest_adaptive () =
  let d, e = budget_pins ~policy:Tact_protocols.Budget.Adaptive in
  Alcotest.(check string) "digest" "5b8857a50764de7ed0f71747cca2bbd2" d;
  Alcotest.(check int) "bookkeeping entries" 60 e

let test_budget_digest_proportional () =
  let d, e =
    budget_pins
      ~policy:(Tact_protocols.Budget.Proportional [| 1.0; 2.0; 3.0; 4.0; 5.0 |])
  in
  Alcotest.(check string) "digest" "2ee5979947463130b563d6e1d9ffc3bc" d;
  Alcotest.(check int) "bookkeeping entries" 60 e

let suite =
  [
    Alcotest.test_case "sim_sharded-shaped Sharded.digest" `Quick test_sharded_digest;
    Alcotest.test_case "campaign digest seed 1" `Quick test_campaign_digest;
    Alcotest.test_case "per-write budget digest, adaptive" `Quick
      test_budget_digest_adaptive;
    Alcotest.test_case "per-write budget digest, proportional" `Quick
      test_budget_digest_proportional;
  ]
