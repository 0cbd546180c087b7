(* Measurement primitives shared by the workloads: a monotonic clock,
   GC allocation deltas, order statistics, an in-memory span recorder and
   the per-pass metric bag. Everything here observes the simulator from
   outside — it only wraps calls the workloads make into public
   functions. *)

let now_ns () = Monotonic_clock.now ()

let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

(* Time one call; returns its result and its host seconds. *)
let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* ------------------------------------------------------------------ *)
(* GC *)

type gc = { minor : float; major : float; promoted : float; major_collections : int }

(* [Gc.minor_words] also counts the words in the current minor heap,
   which [Gc.quick_stat] only picks up at the next minor collection. *)
let gc_now () =
  let s = Gc.quick_stat () in
  {
    minor = Gc.minor_words ();
    major = s.Gc.major_words;
    promoted = s.Gc.promoted_words;
    major_collections = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor = b.minor -. a.minor;
    major = b.major -. a.major;
    promoted = b.promoted -. a.promoted;
    major_collections = b.major_collections - a.major_collections;
  }

(* Words allocated in the interval: minor allocations plus direct major
   allocations (promotions are already counted once as minor words). *)
let allocated_words d = d.minor +. d.major -. d.promoted

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Order statistics *)

let sorted xs = List.sort Float.compare xs

(* Nearest-rank percentile, [q] in [0, 1]. *)
let percentile q xs =
  match sorted xs with
  | [] -> 0.0
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

let sum = List.fold_left ( +. ) 0.0

let mean = function [] -> 0.0 | xs -> sum xs /. float_of_int (List.length xs)

(* ------------------------------------------------------------------ *)
(* Spans *)

(* One traced interval at a layer boundary, in host nanoseconds. [parent]
   is the id of the enclosing span (0 for a root); spans of one pass
   share its [pass] number. *)
type span = {
  id : int;
  parent : int;
  pass : int;
  name : string;
  cat : string;
  start : int64;
  stop : int64;
}

type tracer = { mutable spans : span list; mutable next : int; pass_no : int }

let tracer ~pass_no = { spans = []; next = 1; pass_no }

(* [span tr ~parent ~cat name f] runs [f id] inside a span and returns its
   result; without a tracer it just runs [f 0]. *)
let span tr ?(parent = 0) ~cat name f =
  match tr with
  | None -> f 0
  | Some tr ->
    let id = tr.next in
    tr.next <- id + 1;
    let start = now_ns () in
    let r = f id in
    tr.spans <-
      { id; parent; pass = tr.pass_no; name; cat; start; stop = now_ns () } :: tr.spans;
    r

(* Chrome trace-event JSON: one complete event per span; the pass number is
   the thread id so passes stack as separate tracks. *)
let write_spans path spans =
  let spans = List.sort (fun a b -> compare (a.pass, a.id) (b.pass, b.id)) spans in
  let t0 = List.fold_left (fun acc s -> min acc s.start) Int64.max_int spans in
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name s.cat s.pass (us s.start)
        (us s.stop -. us s.start)
        s.id s.parent)
    spans;
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Per-pass results *)

(* What one pass of a workload reports back: the measured phase's host
   seconds, the host ms of each separately timed piece (an operation, or
   an experiment of [reproduce]'s single operation), how many failed, the
   pass's rendered outputs (what the output digest covers), any broken
   invariant, and (when traced) the per-layer metrics it measured. *)
type pass = {
  wall_s : float;
  op_ms : float list;
  failed : int;
  output : string;
  errors : string list;
  layers : (string * float) list;
}
