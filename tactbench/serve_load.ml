(* Closed-loop client-protocol load against a fleet, plus the post-run
   convergence check.

   The client protocol carries no request id, so each connection keeps at
   most one request in flight. *)

open Tact_store
open Tact_transport
module Bounds = Tact_core.Bounds

(* ---- the requests ------------------------------------------------------ *)

(* Every request of the load is a weak Submit that adds 1 to one of
   [nkeys] keys, spread over four conits. *)
let nkeys = 8
let key j = Printf.sprintf "k%d" j
let conit_of_key j = Printf.sprintf "c%d" (j mod 4)

type req = { k : int }

let request_of r =
  Client.Submit { conit = conit_of_key r.k; nweight = 1.0; oweight = 1.0; op = Op.Add (key r.k, 1.0) }

let draw rng = { k = Tact_util.Prng.int rng nkeys }

(* ---- results ------------------------------------------------------------ *)

type result = {
  lat : Samples.t;  (* µs, from sending a request to its answer *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* first few failure descriptions *)
  applied : int array;  (* applied submits per key *)
}

let create_result () =
  { lat = Samples.create (); attempted = 0; failed = 0; errors = []; applied = Array.make nkeys 0 }

let fail_op res msg =
  res.failed <- res.failed + 1;
  if List.length res.errors < 5 then res.errors <- msg :: res.errors

(* Check a response against its request: a Submit must get an Outcome; a
   wrong kind or an Err counts as a failure. *)
let account res r resp ~lat_us =
  match resp with
  | Ok (Client.Outcome (Op.Applied _)) ->
    res.applied.(r.k) <- res.applied.(r.k) + 1;
    Samples.add res.lat lat_us
  | Ok other -> fail_op res (Printf.sprintf "submit got %s" (Client.describe_response other))
  | Error e -> fail_op res (Printf.sprintf "submit: %s" (Transport.error_to_string e))

(* ---- a non-blocking connection ------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable inflight : (req * int) option;  (* request, send time ns *)
}

let open_conn port =
  let fd = Fleet.connect port ~deadline:(Unix.gettimeofday () +. 10.0) in
  { fd; buf = Bytes.create 4096; len = 0; inflight = None }

let send c r =
  c.inflight <- Some (r, Samples.now_ns ());
  Fleet.send_request c.fd (request_of r)

(* Read what is available; return the decoded response once complete. *)
let read_ready c =
  if c.len = Bytes.length c.buf then begin
    let b = Bytes.create (2 * c.len) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  (match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
  | 0 -> raise End_of_file
  | r -> c.len <- c.len + r);
  let hdr = Transport.frame_header_size in
  match Transport.decode_frame_header c.buf ~off:0 ~avail:c.len with
  | Ok (Some len) when c.len >= hdr + len ->
    let payload = Bytes.sub_string c.buf hdr len in
    let rest = c.len - hdr - len in
    Bytes.blit c.buf (hdr + len) c.buf 0 rest;
    c.len <- rest;
    Some (Client.decode_response payload)
  | Ok _ -> None
  | Error e -> Some (Error e)

(* Wait up to [timeout] seconds for responses on busy connections; hand
   each completed one to [on_done]. *)
let pump conns ~timeout ~on_done =
  let busy = List.filter (fun c -> c.inflight <> None) conns in
  let ready, _, _ =
    try Unix.select (List.map (fun c -> c.fd) busy) [] [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  List.iter
    (fun c ->
      if List.memq c.fd ready then
        match read_ready c with
        | None -> ()
        | Some resp ->
          let r, t0 = Option.get c.inflight in
          c.inflight <- None;
          on_done c r t0 resp)
    busy

(* ---- closed loop ---------------------------------------------------------- *)

(* Each connection submits [per_conn] requests back to back. *)
let closed_loop conns ~rng ~per_conn res =
  let left = List.map (fun c -> (c, ref per_conn)) conns in
  let next c =
    let l = List.assq c left in
    if !l > 0 then begin
      decr l;
      res.attempted <- res.attempted + 1;
      send c (draw rng)
    end
  in
  List.iter next conns;
  while List.exists (fun c -> c.inflight <> None) conns do
    pump conns ~timeout:30.0 ~on_done:(fun c r t0 resp ->
        account res r resp ~lat_us:(Samples.us_of_ns (Samples.now_ns () - t0));
        next c)
  done

(* ---- the output check ------------------------------------------------------- *)

(* After the timed phase every replica must serve the applied-submit total
   of every key under a zero staleness bound.  The queries park until a
   pull round completes, so they are all sent at once, one connection each,
   and answered on [loop]; [local] serves them at a replica hosted in this
   process.  Returns failure messages. *)
let check_totals ~loop ?local ~ports ~applied () =
  let errs = ref [] and outstanding = ref 0 and fds = ref [] in
  let verdict where j resp =
    decr outstanding;
    match resp with
    | Ok (Client.Value v) ->
      let got = Value.to_float v and want = float_of_int applied.(j) in
      if Float.abs (got -. want) > 1e-9 then
        errs := Printf.sprintf "%s key %s: %g, want %g" where (key j) got want :: !errs
    | Ok r -> errs := Printf.sprintf "%s check: %s" where (Client.describe_response r) :: !errs
    | Error e -> errs := Printf.sprintf "%s check: %s" where (Transport.error_to_string e) :: !errs
  in
  let query j = Client.Query { key = key j; conit = conit_of_key j; bounds = Bounds.make ~st:0.0 () } in
  let deadline = Unix.gettimeofday () +. 20.0 in
  for j = 0 to nkeys - 1 do
    Option.iter
      (fun serve ->
        incr outstanding;
        serve (query j) (fun resp -> verdict "local replica" j (Ok resp)))
      local;
    List.iter
      (fun port ->
        let fd = Fleet.connect port ~deadline in
        Fleet.send_request fd (query j);
        incr outstanding;
        fds := fd :: !fds;
        Tact_transport.Loop.on_readable loop fd (fun () ->
            Tact_transport.Loop.forget loop fd;
            let resp =
              try Fleet.read_response fd
              with End_of_file | Unix.Unix_error _ -> Error (Transport.Closed "check query")
            in
            verdict (Printf.sprintf "port %d" port) j resp))
      ports
  done;
  while !outstanding > 0 && Unix.gettimeofday () < deadline do
    ignore (Tact_transport.Loop.run_once ~max_wait:0.005 loop)
  done;
  List.iter (fun fd -> Tact_transport.Loop.forget loop fd; Unix.close fd) !fds;
  if !outstanding > 0 then errs := Printf.sprintf "%d check queries unanswered" !outstanding :: !errs;
  List.rev !errs
