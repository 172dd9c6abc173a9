(* The traced served passes.  Replica 0 is hosted in this process as a twin
   of tact_serve: built from the constructors Serve.create uses (Loop, Tcp,
   Faulty, Replica.create_ext) with the daemon's default config, talking to
   two real tact_serve peers.  The load keeps its shape: connection 0 goes
   to the twin in-process through the Client codec and the same request
   handling Serve does; connection 1 is a socket to daemon 1, multiplexed on
   the twin's loop.

   Spans wrap the Client codec calls Serve makes (decode_request, and
   encode_response into a reused frame), Replica.submit_* and its
   continuation, each Loop.run_once, the replica's timers, the endpoint
   send, and Replica.deliver_wire (through Tcp.set_handler).  The load
   generator's own codec work (encoding the request, decoding the answer)
   has spans of its own, gen.*.  With the recorder off the same code runs
   untraced, which gives the tracing overhead. *)

open Tact_store
open Tact_transport
module Replica = Tact_replica.Replica
module Config = Tact_replica.Config
module L = Serve_load

type t = {
  loop : Loop.t;
  tcp : Tcp.t;
  replica : Replica.t;
  spans : Spans.t;
  frame : Codec.Frame.t;  (* response encode arena, reused as in Serve *)
}

let create ~spans ~peer_addrs ~seed =
  let n = Array.length peer_addrs in
  let config = Config.default in
  let loop = Loop.create () in
  let rng = Tact_util.Prng.create ~seed in
  let tcp =
    Tcp.create ~loop ~self:0 ~addrs:peer_addrs ~knobs:config.Config.transport
      ~rng:(Tact_util.Prng.split rng) ()
  in
  let faulty =
    Faulty.create ~self:0 ~n ~nominal_delay:0.0
      ~schedule:(fun ~delay f -> Loop.schedule loop ~tag:"fault-delay" ~delay f)
      ~send:(fun ~dst payload -> Tcp.send tcp ~dst payload)
      ()
  in
  let endpoint =
    {
      Transport.ep_self = 0;
      ep_n = n;
      ep_now = (fun () -> Loop.now loop);
      ep_schedule =
        (fun ~tag ~delay f -> Loop.schedule loop ~tag ~delay (fun () -> Spans.span spans "loop.timer" f));
      ep_every =
        (fun ~tag ~period f -> Loop.every loop ~tag ~period (fun () -> Spans.span spans "loop.timer" f));
      ep_send = (fun ~dst payload -> Spans.span spans "tcp.send" (fun () -> Faulty.send faulty ~dst payload));
      ep_close = (fun () -> Tcp.close tcp);
    }
  in
  let replica = Replica.create_ext ~id:0 ~n ~endpoint ~config () in
  Tcp.set_handler tcp (fun ~src payload ->
      Spans.span spans "replica.deliver_wire" (fun () -> Replica.deliver_wire replica ~src payload));
  Tcp.set_on_peer_up tcp (fun peer -> Loop.defer loop (fun () -> Replica.resync replica ~peer));
  Tcp.listen tcp ~addr:peer_addrs.(0);
  Replica.start replica;
  { loop; tcp; replica; spans; frame = Codec.Frame.create () }

let close t =
  Replica.close t.replica;
  Tcp.close t.tcp;
  Loop.stop t.loop

let peers_up t =
  let up = ref 0 in
  for j = 1 to Tcp.size t.tcp - 1 do
    if Tcp.peer_up t.tcp j then incr up
  done;
  !up

let pump ?(max_wait = 0.0) t =
  Spans.span t.spans "loop.run_once" (fun () -> ignore (Loop.run_once ~max_wait t.loop))

(* Serve.handle_request, minus the socket: the same replica entry points
   with the same deadline and continuations. *)
let handle t ~op req ~respond =
  let deadline = Loop.now t.loop +. 30.0 in
  match (req : Client.request) with
  | Client.Submit { conit; nweight; oweight; op = wop } ->
    Spans.span t.spans ~op "replica.submit_write" (fun () ->
        Replica.submit_write t.replica ~deadline
          ~on_timeout:(fun () -> respond (Client.Err "deadline"))
          ~deps:[]
          ~affects:[ { Write.conit; nweight; oweight } ]
          ~op:wop
          ~k:(fun outcome -> respond (Client.Outcome outcome)))
  | Client.Query { key; conit; bounds } ->
    Spans.span t.spans ~op "replica.submit_read" (fun () ->
        Replica.submit_read t.replica ~deadline
          ~on_timeout:(fun () -> respond (Client.Err "deadline"))
          ~deps:[ (conit, bounds) ]
          ~f:(fun db -> Db.get db key)
          ~k:(fun v -> respond (Client.Value v)))
  | Client.Status -> respond (Client.Err "status is not part of the workload")

(* ---- one operation through the in-process connection ---------------- *)

type op_rec = { o_sent : int; mutable o_end : int (* ns *) }

type inproc = {
  twin : t;
  mutable busy : bool;
  mutable next_op : int;
  mutable ops : op_rec list;  (* newest first *)
  res : L.result;
}

let create_inproc twin = { twin; busy = false; next_op = 0; ops = []; res = L.create_result () }

(* The server side mirrors Serve: Client.decode_request on the payload, and
   Client.encode_response into the twin's reused frame. *)
let send_inproc ip (r : L.req) =
  let tw = ip.twin in
  let sp = tw.spans in
  let op = ip.next_op in
  ip.next_op <- op + 1;
  ip.busy <- true;
  let rec_ = { o_sent = Samples.now_ns (); o_end = 0 } in
  ip.ops <- rec_ :: ip.ops;
  let finish resp =
    rec_.o_end <- Samples.now_ns ();
    L.account ip.res r resp ~lat_us:(Samples.us_of_ns (rec_.o_end - rec_.o_sent));
    ip.busy <- false
  in
  let respond resp =
    let payload =
      Spans.span sp ~op "client.encode_response" (fun () ->
          Codec.Frame.clear tw.frame;
          Client.encode_response tw.frame resp;
          Codec.Frame.contents tw.frame)
    in
    finish (Spans.span sp ~op "gen.decode_response" (fun () -> Client.decode_response payload))
  in
  let payload = Spans.span sp ~op "gen.encode_request" (fun () -> Client.request_to_string (L.request_of r)) in
  match Spans.span sp ~op "client.decode_request" (fun () -> Client.decode_request payload) with
  | Ok req -> handle tw ~op req ~respond
  | Error e -> finish (Error e)

(* ---- connection 1: a socket to daemon 1 on the twin's loop ------------ *)

type sock = { conn : L.conn; sres : L.result; mutable on_free : unit -> unit }

let open_sock t port =
  let conn = L.open_conn port in
  let s = { conn; sres = L.create_result (); on_free = ignore } in
  Loop.on_readable t.loop conn.L.fd (fun () ->
      Spans.span t.spans "gen.socket" (fun () ->
          match L.read_ready conn with
          | None -> ()
          | Some resp ->
            let r, t0 = Option.get conn.L.inflight in
            conn.L.inflight <- None;
            L.account s.sres r resp ~lat_us:(Samples.us_of_ns (Samples.now_ns () - t0));
            s.on_free ()));
  s

let close_sock t s =
  Loop.forget t.loop s.conn.L.fd;
  Unix.close s.conn.L.fd

(* ---- the closed loop ---------------------------------------------------- *)

(* In-process operations are handed to the loop with Loop.defer, so their
   work runs inside a Loop.run_once as a request read off a client socket
   does in the daemon.  The two connections run in lockstep: each socket
   response releases the next socket request and the next in-process one,
   so both progress at the pace of a client round trip. *)
let closed_loop t ip sock ~rng ~per_conn =
  let left_in = ref per_conn and left_sock = ref per_conn in
  let next_inproc () =
    if !left_in > 0 then begin
      decr left_in;
      ip.res.L.attempted <- ip.res.L.attempted + 1;
      let r = L.draw rng in
      ip.busy <- true;
      Loop.defer t.loop (fun () -> send_inproc ip r)
    end
  in
  let next_sock () =
    if !left_sock > 0 then begin
      decr left_sock;
      sock.sres.L.attempted <- sock.sres.L.attempted + 1;
      L.send sock.conn (L.draw rng)
    end;
    next_inproc ()
  in
  sock.on_free <- next_sock;
  next_sock ();
  let iters = ref 0 in
  while !left_in > 0 || ip.busy || !left_sock > 0 || sock.conn.L.inflight <> None do
    pump t ~max_wait:0.005;
    incr iters
  done;
  !iters
