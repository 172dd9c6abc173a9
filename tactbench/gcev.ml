(* GC pauses per domain, read from this process's runtime_events ring:
   time inside minor collections (EV_MINOR) and inside major slices
   (EV_MAJOR_SLICE).  Only the traced passes start the ring. *)

module RE = Runtime_events

let max_domains = 128

type t = {
  cursor : RE.cursor;
  cb : RE.Callbacks.t;
  minor_ns : int array;
  major_ns : int array;
  minor_count : int array;
  open_minor : int array;
  open_major : int array;
  lost : int ref;  (* events overwritten before they were read *)
}

let ts x = Int64.to_int (RE.Timestamp.to_int64 x)

let create () =
  RE.start ();
  let minor_ns = Array.make max_domains 0 and major_ns = Array.make max_domains 0 in
  let minor_count = Array.make max_domains 0 in
  let open_minor = Array.make max_domains (-1) and open_major = Array.make max_domains (-1) in
  let lost = ref 0 in
  let runtime_begin d time phase =
    if d < max_domains then
      match phase with
      | RE.EV_MINOR -> open_minor.(d) <- ts time
      | RE.EV_MAJOR_SLICE -> open_major.(d) <- ts time
      | _ -> ()
  in
  let runtime_end d time phase =
    if d < max_domains then
      match phase with
      | RE.EV_MINOR when open_minor.(d) >= 0 ->
        minor_ns.(d) <- minor_ns.(d) + (ts time - open_minor.(d));
        minor_count.(d) <- minor_count.(d) + 1;
        open_minor.(d) <- -1
      | RE.EV_MAJOR_SLICE when open_major.(d) >= 0 ->
        major_ns.(d) <- major_ns.(d) + (ts time - open_major.(d));
        open_major.(d) <- -1
      | _ -> ()
  in
  let cb = RE.Callbacks.create ~runtime_begin ~runtime_end ~lost_events:(fun _ k -> lost := !lost + k) () in
  let t =
    { cursor = RE.create_cursor None; cb; minor_ns; major_ns; minor_count; open_minor; open_major;
      lost }
  in
  ignore (RE.read_poll t.cursor t.cb None);
  t

let poll t = ignore (RE.read_poll t.cursor t.cb None)

(* Drain the ring and zero the totals. *)
let reset t =
  poll t;
  Array.fill t.minor_ns 0 max_domains 0;
  Array.fill t.major_ns 0 max_domains 0;
  Array.fill t.minor_count 0 max_domains 0

let sum a = Array.fold_left ( + ) 0 a
let minor_s t = float_of_int (sum t.minor_ns) /. 1e9
let major_s t = float_of_int (sum t.major_ns) /. 1e9

(* Per-domain minor pause seconds over the domains that reported any. *)
let minor_by_domain t =
  List.filter_map
    (fun d -> if t.minor_count.(d) > 0 then Some (float_of_int t.minor_ns.(d) /. 1e9) else None)
    (List.init max_domains Fun.id)
