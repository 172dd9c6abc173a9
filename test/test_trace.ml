(* The trace ring buffer and its replica integration. *)

open Tact_util

let test_ring_buffer () =
  let tr = Trace.create ~capacity:3 () in
  for i = 1 to 5 do
    Trace.record tr ~time:(float_of_int i) ~source:"s" ~kind:"k" (string_of_int i)
  done;
  Alcotest.(check int) "total count" 5 (Trace.count tr);
  let evs = Trace.events tr in
  Alcotest.(check int) "retained = capacity" 3 (List.length evs);
  Alcotest.(check (list string)) "oldest evicted" [ "3"; "4"; "5" ]
    (List.map (fun (e : Trace.event) -> e.detail) evs)

let test_render_and_find () =
  let tr = Trace.create () in
  Trace.record tr ~time:1.0 ~source:"a" ~kind:"x" "one";
  Trace.record tr ~time:2.0 ~source:"b" ~kind:"y" "two";
  Trace.record tr ~time:3.0 ~source:"a" ~kind:"x" "three";
  Alcotest.(check int) "find by kind" 2 (List.length (Trace.find tr ~kind:"x"));
  let r = Trace.render ~last:1 tr in
  Alcotest.(check bool) "render tail" true
    (String.length r > 0
    && List.length (String.split_on_char '\n' (String.trim r)) = 1)

let test_replica_integration () =
  let open Tact_sim in
  let open Tact_store in
  let open Tact_replica in
  let tr = Trace.create () in
  let config =
    { Config.default with Config.antientropy_period = Some 0.5; trace = Some tr }
  in
  let sys =
    System.create ~topology:(Topology.uniform ~n:2 ~latency:0.03 ~bandwidth:1e6)
      ~config ()
  in
  let engine = System.engine sys in
  Engine.schedule engine ~delay:0.1 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[]
        ~affects:[ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ]
        ~op:(Op.Add ("x", 1.0)) ~k:ignore);
  System.run ~until:30.0 sys;
  Alcotest.(check bool) "accept traced" true (Trace.find tr ~kind:"accept" <> []);
  Alcotest.(check bool) "transfer traced" true (Trace.find tr ~kind:"transfer" <> []);
  Alcotest.(check bool) "commit traced" true (Trace.find tr ~kind:"commit" <> [])

(* Replicas format an event's detail only when tracing is on; the text must
   still be exactly what the call sites ask for, and no event may go
   missing. *)
let test_replica_event_text () =
  let open Tact_sim in
  let open Tact_store in
  let open Tact_replica in
  let tr = Trace.create () in
  let config =
    {
      Config.default with
      Config.conits = [ Tact_core.Conit.declare "c" ];
      antientropy_period = Some 0.5;
      trace = Some tr;
    }
  in
  let sys =
    System.create ~topology:(Topology.uniform ~n:2 ~latency:0.03 ~bandwidth:1e6)
      ~config ()
  in
  let engine = System.engine sys in
  let affects = [ { Write.conit = "c"; nweight = 1.0; oweight = 1.0 } ] in
  let op = Op.Add ("x", 1.0) in
  Engine.schedule engine ~delay:0.1 (fun () ->
      Replica.submit_write (System.replica sys 0) ~deps:[] ~affects ~op ~k:ignore);
  Engine.schedule engine ~delay:0.2 (fun () ->
      Replica.submit_read (System.replica sys 1)
        ~deps:[ ("c", Tact_core.Bounds.strong) ]
        ~f:(fun db -> Db.get db "x")
        ~k:ignore);
  System.run ~until:30.0 sys;
  let details kind =
    List.map
      (fun (e : Trace.event) -> (e.source, e.detail))
      (Trace.find tr ~kind)
  in
  let pairs = Alcotest.(list (pair string string)) in
  let w = Write.make ~id:{ origin = 0; seq = 1 } ~accept_time:0.1 ~op ~affects in
  Alcotest.check pairs "accept" [ ("replica 0", Write.to_string w) ] (details "accept");
  Alcotest.(check string) "accept format" "w0.1@0.100 add x += 1" (Write.to_string w);
  Alcotest.check pairs "commit"
    [ ("replica 0", "1 writes (stability)"); ("replica 1", "1 writes (stability)") ]
    (List.sort compare (details "commit"));
  Alcotest.check pairs "blocked" [ ("replica 1", "read with 1 deps") ] (details "blocked");
  Alcotest.check pairs "transfer" [ ("replica 1", "1 new writes from replica 0") ]
    (details "transfer");
  match Trace.find tr ~kind:"served" with
  | [ e ] ->
    Alcotest.(check string) "served"
      (Printf.sprintf "read after %.3fs wait" (e.time -. 0.2))
      e.detail
  | evs -> Alcotest.failf "expected one served event, got %d" (List.length evs)

let suite =
  [
    Alcotest.test_case "ring buffer" `Quick test_ring_buffer;
    Alcotest.test_case "render and find" `Quick test_render_and_find;
    Alcotest.test_case "replica integration" `Quick test_replica_integration;
    Alcotest.test_case "replica event text" `Quick test_replica_event_text;
  ]
