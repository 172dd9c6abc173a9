(* A loopback fleet of tact_serve daemons: spawn, wait until every peer
   link is up, talk the client protocol, read peak memory from /proc, and
   drain with SIGTERM, collecting each daemon's final status line. *)

open Tact_store
open Tact_transport
module Json = Tact_check.Json

exception Setup of string

let setup_fail fmt = Printf.ksprintf (fun m -> raise (Setup m)) fmt

(* ---- ports ----------------------------------------------------------- *)

let range_free base count =
  let ok = ref true in
  for p = base to base + count - 1 do
    if !ok then begin
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      (match Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, p)) with
      | () -> ()
      | exception Unix.Unix_error _ -> ok := false);
      Unix.close fd
    end
  done;
  !ok

(* Ports are not workload inputs: draw them from a process-local stream so
   back-to-back fleets never reuse a range still in TIME_WAIT. *)
let port_rng = lazy (Random.State.make [| Unix.getpid (); int_of_float (Unix.time ()) |])

let pick_port_base n =
  let rng = Lazy.force port_rng in
  let rec go attempts =
    if attempts = 0 then setup_fail "no free loopback port range";
    let base = 20000 + (4 * Random.State.int rng 5000) in
    if range_free base n && range_free (base + 1000) n then base else go (attempts - 1)
  in
  go 50

(* ---- blocking client-protocol I/O ------------------------------------- *)

let rec really_write fd s off len =
  if len > 0 then begin
    let w = Unix.write_substring fd s off len in
    really_write fd s (off + w) (len - w)
  end

let rec really_read fd buf off len =
  if len > 0 then
    match Unix.read fd buf off len with
    | 0 -> raise End_of_file
    | r -> really_read fd buf (off + r) (len - r)

let frame_of_request req =
  let payload = Client.request_to_string req in
  Transport.encode_frame_header ~len:(String.length payload) ^ payload

let send_request fd req =
  let msg = frame_of_request req in
  really_write fd msg 0 (String.length msg)

let read_response fd =
  let hdr = Bytes.create Transport.frame_header_size in
  really_read fd hdr 0 Transport.frame_header_size;
  match Transport.decode_frame_header hdr ~off:0 ~avail:Transport.frame_header_size with
  | Ok (Some len) ->
    let body = Bytes.create len in
    really_read fd body 0 len;
    Client.decode_response (Bytes.to_string body)
  | Ok None | Error _ -> Error (Transport.Malformed "bad response frame header")

let rpc fd req =
  send_request fd req;
  read_response fd

let connect port ~deadline =
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
      fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if Unix.gettimeofday () > deadline then
        setup_fail "daemon on port %d never accepted" port;
      Unix.sleepf 0.005;
      go ()
  in
  go ()

(* ---- /proc ------------------------------------------------------------ *)

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let vm_hwm_mb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0.0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0.0
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
              float_of_int kb /. 1024.0)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let self_hwm_mb () = vm_hwm_mb (Unix.getpid ())

(* Restart this process's VmHWM at its current resident size, so a round
   can read its own peak. *)
let reset_self_hwm () =
  let oc = open_out "/proc/self/clear_refs" in
  output_string oc "5";
  close_out oc

(* ---- daemons ---------------------------------------------------------- *)

type daemon = { d_id : int; d_pid : int; d_out : string; d_client_port : int }

type t = {
  n : int;
  port_base : int;
  client_base : int;
  daemons : daemon list;  (* ids in [first, n) *)
  mutable live : bool;
}

(* Every process this benchmark starts, so an exit on any path stops
   them. *)
let spawned : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !spawned;
  spawned := []

let () = at_exit kill_all

(* The daemons run with the runtime settings they ship with: whatever
   OCAMLRUNPARAM this process was given stays here. *)
let daemon_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.length kv >= 13 && String.sub kv 0 13 = "OCAMLRUNPARAM"))
       (Array.to_list (Unix.environment ())))

let spawn ~exe ~out_dir ~n ~first ~seed =
  let port_base = pick_port_base n in
  let client_base = port_base + 1000 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let env = daemon_env () in
  let daemons =
    List.init (n - first) (fun k ->
        let id = first + k in
        let d_out = Filename.concat out_dir (Printf.sprintf "daemon-%d.status" id) in
        let out = Unix.openfile d_out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
        let args =
          [| exe; "--id"; string_of_int id; "--n"; string_of_int n;
             "--port-base"; string_of_int port_base;
             "--client-port-base"; string_of_int client_base;
             "--seed"; string_of_int seed; "--duration"; "170" |]
        in
        let pid = Unix.create_process_env exe args env devnull out devnull in
        Unix.close out;
        spawned := pid :: !spawned;
        { d_id = id; d_pid = pid; d_out; d_client_port = client_base + id })
  in
  Unix.close devnull;
  { n; port_base; client_base; daemons; live = true }

let peer_addrs t =
  Array.init t.n (fun j -> Unix.ADDR_INET (Unix.inet_addr_loopback, t.port_base + j))

let client_port t id = t.client_base + id

(* Poll Status on every daemon until each reports all n-1 peers up. *)
let wait_ready ?(pump = ignore) t =
  let deadline = Unix.gettimeofday () +. 20.0 in
  List.iter
    (fun d ->
      let fd = connect d.d_client_port ~deadline in
      let rec poll () =
        pump ();
        match rpc fd Client.Status with
        | Ok (Client.Status_r s) when s.Client.c_peers_up = t.n - 1 -> ()
        | Ok (Client.Status_r _) ->
          if Unix.gettimeofday () > deadline then
            setup_fail "daemon %d never saw all peers" d.d_id;
          Unix.sleepf 0.002;
          poll ()
        | Ok r -> setup_fail "status: unexpected %s" (Client.describe_response r)
        | Error e -> setup_fail "status: %s" (Transport.error_to_string e)
      in
      poll ();
      Unix.close fd)
    t.daemons

let peak_mb t = List.fold_left (fun acc d -> Float.max acc (vm_hwm_mb d.d_pid)) 0.0 t.daemons

(* The counters of a daemon's final status line that the benchmark reads. *)
type final = { sent_frames : int; malformed : int; parked_drops : int }

let read_final path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
    let l = last None in
    close_in ic;
    Option.bind l (fun l ->
        match Json.parse l with
        | Error _ -> None
        | Ok j ->
          let int k = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int) in
          Some
            { sent_frames = int "sent"; malformed = int "malformed"; parked_drops = int "parked_drops" })

(* SIGTERM every daemon, wait for its drain, and return the final status
   lines.  A daemon that does not exit 0 within the deadline is killed and
   reported as [None]. *)
let stop t =
  if not t.live then []
  else begin
    t.live <- false;
    List.iter (fun d -> try Unix.kill d.d_pid Sys.sigterm with Unix.Unix_error _ -> ()) t.daemons;
    let deadline = Unix.gettimeofday () +. 15.0 in
    List.map
      (fun d ->
        let rec wait () =
          match Unix.waitpid [ Unix.WNOHANG ] d.d_pid with
          | 0, _ ->
            if Unix.gettimeofday () > deadline then begin
              (try Unix.kill d.d_pid Sys.sigkill with Unix.Unix_error _ -> ());
              ignore (Unix.waitpid [] d.d_pid);
              false
            end
            else begin
              Unix.sleepf 0.005;
              wait ()
            end
          | _, Unix.WEXITED 0 -> true
          | _, _ -> false
        in
        let ok = wait () in
        spawned := List.filter (fun p -> p <> d.d_pid) !spawned;
        if ok then read_final d.d_out else None)
      t.daemons
  end
