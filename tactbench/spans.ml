(* In-memory spans for the traced passes.  A span records its name, start,
   end, parent span, the operation it works for (or -1 when it serves
   several), and the domain that ran it.  Spans are kept in growable arrays
   and written out when the run ends.  A recorder that is off runs the
   wrapped function and records nothing. *)

type t = {
  mutable on : bool;
  mutable len : int;
  mutable name : string array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable dom : int array;
  mutable cur : int;  (* innermost open span, -1 at top level *)
}

let create ~on =
  let cap = 1 lsl 16 in
  { on; len = 0; name = Array.make cap ""; t0 = Array.make cap 0; t1 = Array.make cap 0;
    parent = Array.make cap (-1); op = Array.make cap (-1); dom = Array.make cap 0; cur = -1 }

let grow t =
  let cap = 2 * Array.length t.t0 in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.name <- ext t.name "";
  t.t0 <- ext t.t0 0;
  t.t1 <- ext t.t1 0;
  t.parent <- ext t.parent (-1);
  t.op <- ext t.op (-1);
  t.dom <- ext t.dom 0

(* Record a finished span directly (spans measured elsewhere, e.g. in a
   pool task on another domain). *)
let add t ?(op = -1) ?(parent = -1) ?(dom = 0) name ~t0 ~t1 =
  if t.len = Array.length t.t0 then grow t;
  let i = t.len in
  t.len <- i + 1;
  t.name.(i) <- name;
  t.t0.(i) <- t0;
  t.t1.(i) <- t1;
  t.parent.(i) <- parent;
  t.op.(i) <- op;
  t.dom.(i) <- dom;
  i

(* A span without an explicit op works for its parent's op. *)
let span t ?op name f =
  if not t.on then f ()
  else begin
    let op = match op with Some o -> o | None -> if t.cur >= 0 then t.op.(t.cur) else -1 in
    let i = add t ~op ~parent:t.cur name ~t0:(Samples.now_ns ()) ~t1:0 in
    t.cur <- i;
    let finish () =
      t.t1.(i) <- Samples.now_ns ();
      t.cur <- t.parent.(i)
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let dur t i = t.t1.(i) - t.t0.(i)

(* Self time of every span: its duration minus its children's. *)
let self_times t =
  let self = Array.init t.len (dur t) in
  for i = 0 to t.len - 1 do
    let p = t.parent.(i) in
    if p >= 0 then self.(p) <- self.(p) - dur t i
  done;
  self

let iter t f =
  for i = 0 to t.len - 1 do
    f i
  done

(* One line per span: name, start and end (ns, relative to the first
   span), parent, op, domain. *)
let write t path =
  let oc = open_out path in
  let base = if t.len > 0 then t.t0.(0) else 0 in
  output_string oc "name\tstart_ns\tend_ns\tparent\top\tdomain\n";
  for i = 0 to t.len - 1 do
    Printf.fprintf oc "%s\t%d\t%d\t%d\t%d\t%d\n" t.name.(i) (t.t0.(i) - base) (t.t1.(i) - base)
      t.parent.(i) t.op.(i) t.dom.(i)
  done;
  close_out oc
