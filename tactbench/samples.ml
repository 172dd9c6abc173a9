(* Raw latency samples and order statistics.  Latencies span 10 µs to
   1 s here, which a uniform-bucket histogram cannot hold, so every sample
   is kept and percentiles are read off the sorted array. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let us_of_ns ns = float_of_int ns /. 1e3

type t = { mutable a : float array; mutable n : int }

let create () = { a = Array.make 1024 0.0; n = 0 }

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0.0 in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let to_array t = Array.sub t.a 0 t.n

let append dst src =
  for i = 0 to src.n - 1 do
    add dst src.a.(i)
  done

(* Nearest-rank quantile of a sorted array; nan when empty. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then Float.nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) r))

let sorted t =
  let s = to_array t in
  Array.sort Float.compare s;
  s

let quantile t q = quantile_sorted (sorted t) q

let median_list = function
  | [] -> Float.nan
  | xs ->
    let s = Array.of_list xs in
    Array.sort Float.compare s;
    let n = Array.length s in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

let mean_list = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let count_above t limit =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if t.a.(i) > limit then incr c
  done;
  !c
