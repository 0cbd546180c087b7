(* The repository benchmark.

     main.exe --workload reproduce|fuzz|serve-soak --seed N --seconds S --trace 0|1 [--tiny]

   A workload's inputs come from [--seed]. A pass is the workload's set-up
   followed by its measured phase, run in a process of its own. A
   run repeats passes until [--seconds] are spent, at least one. With
   [--trace 1] untraced and traced passes alternate, at least one of
   each. Between passes the run times a fixed reference workload
   ([Reference]), and the end-to-end timings are scaled by its speed.

   Every pass checks its outputs; passes over the same inputs must render
   identical outputs, and at the default seed the run's output digest must
   match the one recorded below. Human-readable lines start with [#]; the
   last line is one JSON object: the end-to-end metrics with [--trace 0],
   the per-layer metrics with [--trace 1]. Traced runs also write their
   spans to [.perfbench/<workload>-<seed>.trace.json]. *)

open Meter

let default_seed = 42L

(* Output digests at [default_seed], full size. A change that alters any
   of them changed the simulator's behaviour. *)
let golden =
  [
    ("reproduce", "830027e6f23870f172876c9ce49c5dde");
    ("fuzz", "8639edade1d52dffdb74f8e8b32c0c94");
    ("serve-soak", "d27abb6c54c620194cc1ae3ed597906b");
  ]

(* [setup_reps]: how many times each pass times its set-up; the first one
   is kept. [reproduce]'s set-up takes some 10 us, so it repeats more.
   [one_op]: the whole measured phase is one operation, and the pieces a
   pass times are parts of it. *)
type workload = {
  name : string;
  setup_reps : int;
  one_op : bool;
  prepare : tiny:bool -> traced:bool -> seed:int64 -> tracer option -> pass;
}

let workloads =
  [
    {
      name = "reproduce";
      setup_reps = 200;
      one_op = true;
      prepare =
        (fun ~tiny ~traced:_ ~seed ->
          let input = Reproduce.setup ~tiny ~seed in
          fun tr -> Reproduce.pass tr input);
    };
    {
      name = "fuzz";
      setup_reps = 20;
      one_op = false;
      prepare =
        (fun ~tiny ~traced:_ ~seed ->
          let input = Fuzz_wl.setup ~tiny ~seed in
          fun tr -> Fuzz_wl.pass tr input);
    };
    {
      name = "serve-soak";
      setup_reps = 20;
      one_op = false;
      prepare =
        (fun ~tiny ~traced ~seed ->
          let input = Soak.setup ~tiny ~traced ~seed in
          fun tr -> Soak.pass tr input);
    };
  ]

type done_pass = {
  output_digest : string;
  traced : bool;
  setup_s : float list;
  gc_setup : gc;
  gc_run : gc;
  peak_heap_mb : float;
  spans : span list;
  result : pass;
}

let hex s = Digest.to_hex (Digest.string s)

let one_pass wl ~tiny ~seed ~traced i =
  let tr = if traced then Some (tracer ~pass_no:i) else None in
  (* A full major collection before each set-up and before the measured
     phase, so that neither pays for garbage made before it. *)
  let set_up () =
    Gc.full_major ();
    let g0 = gc_now () in
    let run, s = timed (fun () -> wl.prepare ~tiny ~traced ~seed) in
    (run, s, gc_diff g0 (gc_now ()))
  in
  let run, first_setup_s, gc_setup = set_up () in
  Gc.full_major ();
  let g0 = gc_now () in
  let result = run tr in
  let gc_run = gc_diff g0 (gc_now ()) in
  let peak_heap_mb = peak_heap_mb () in
  (* The further set-ups, timed for [setup_s] only, come after the measured
     phase, which so runs after a single set-up as in a user's run: 200
     set-ups before it raised [reproduce]'s peak heap from 47 MB to 126 MB. *)
  let setup_s =
    first_setup_s
    :: List.init (wl.setup_reps - 1) (fun _ ->
           let _, s, _ = set_up () in
           s)
  in
  {
    output_digest = hex result.output;
    traced;
    setup_s;
    gc_setup;
    gc_run;
    peak_heap_mb;
    spans = (match tr with Some tr -> tr.spans | None -> []);
    (* The parent needs only the digest. *)
    result = { result with output = "" };
  }

let failed_pass ~traced msg =
  let zero = { minor = 0.0; major = 0.0; promoted = 0.0; major_collections = 0 } in
  {
    output_digest = "";
    traced;
    setup_s = [];
    gc_setup = zero;
    gc_run = zero;
    peak_heap_mb = 0.0;
    spans = [];
    result = { wall_s = 0.0; op_ms = []; failed = 1; output = ""; errors = [ msg ]; layers = [] };
  }

(* Run pass [i] in a process of its own: this executable again, with
   [--pass i] added to its arguments; the pass writes its result to the
   pipe that is its standard output. Every pass starts from a fresh
   runtime. Forked from the long-lived parent instead, each pass
   inherited the parent's GC history, and its peak heap grew with the
   pass number. *)
let in_child ~traced i =
  let r, w = Unix.pipe ~cloexec:true () in
  let args = Array.append Sys.argv [| "--pass"; string_of_int i |] in
  flush_all ();
  let pid = Unix.create_process Sys.executable_name args Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let v =
    try (Marshal.from_channel ic : (done_pass, string) result)
    with End_of_file | Failure _ -> Error "the pass process died"
  in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  match v with Ok p -> p | Error msg -> failed_pass ~traced msg

(* The [--pass i] side: run the pass and write its result to standard
   output. Anything else the pass prints goes to standard error. *)
let serve_pass wl ~tiny ~seed ~trace i =
  let out = Unix.out_channel_of_descr (Unix.dup Unix.stdout) in
  Unix.dup2 Unix.stderr Unix.stdout;
  let traced = trace && i mod 2 = 1 in
  let v = try Ok (one_pass wl ~tiny ~seed ~traced i) with exn -> Error (Printexc.to_string exn) in
  Marshal.to_channel out (v : (done_pass, string) result) [];
  close_out out

(* Traced runs trace odd passes. After each pass this process times the
   reference workload for at least 8% of the pass's time, so its samples
   spread over the run as the passes do. A further pass starts only while
   the median round of pass and reference so far says it will end within
   [seconds], and a traced run always has one pass of each kind. Returns
   the passes and the reference's times. *)
let run_passes ~seconds ~trace =
  let start = now_ns () in
  let rec loop i passes refs rounds =
    let t0 = now_ns () in
    let traced = trace && i mod 2 = 1 in
    let p = in_child ~traced i in
    let pass_s = since_s t0 in
    let rec reference refs spent =
      let ms = Reference.time_ms () in
      let spent = spent +. (ms /. 1e3) in
      if spent < 0.08 *. pass_s then reference (ms :: refs) spent else ms :: refs
    in
    let refs = reference refs 0.0 in
    let rounds = since_s t0 :: rounds in
    if (trace && i = 0) || since_s start +. median rounds <= seconds then
      loop (i + 1) (p :: passes) refs rounds
    else (List.rev (p :: passes), refs)
  in
  loop 0 [] [] []

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (name, unit, v) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed body

let gc_layers phase (d : gc) =
  [
    ("gc." ^ phase ^ ".minor_mwords", d.minor /. 1e6);
    ("gc." ^ phase ^ ".major_mwords", d.major /. 1e6);
    ("gc." ^ phase ^ ".major_collections", float_of_int d.major_collections);
  ]

(* Per-layer values from the traced passes: the median of each name. *)
let layer_medians passes =
  let tbl = Hashtbl.create 128 in
  List.iter
    (fun p ->
      List.iter
        (fun (k, v) ->
          Hashtbl.replace tbl k (v :: Option.value (Hashtbl.find_opt tbl k) ~default:[]))
        (p.result.layers @ gc_layers "setup" p.gc_setup @ gc_layers "run" p.gc_run))
    passes;
  fun name -> Option.map median (Hashtbl.find_opt tbl name)

(* Repeated timings of the same work are reduced to their minimum. A
   shared host's speed moves from one 50 ms stretch to the next and in
   spells of ten seconds or more (a fixed loop ran 1.0-2.5x its fastest
   time on a 2-core cloud VM); the fastest of many passes is the
   steadiest estimate of what the work costs. *)
let fastest xs = List.fold_left Float.min infinity xs

(* Each timed piece's host ms: its minimum over the passes that ran it
   (a pass that died early ran none). *)
let op_times passes =
  match List.map (fun p -> Array.of_list p.result.op_ms) passes with
  | [] -> []
  | first :: _ as all ->
    let all = List.filter (fun a -> Array.length a = Array.length first) all in
    List.init (Array.length first) (fun j -> fastest (List.map (fun a -> a.(j)) all))

(* The measured phase's seconds: each piece at its fastest, plus the
   fastest of what the passes spent outside the pieces (the drain and
   final check of [serve-soak], bookkeeping between pieces). *)
let measured_wall passes =
  let outside p = p.result.wall_s -. (sum p.result.op_ms /. 1e3) in
  (sum (op_times passes) /. 1e3) +. fastest (List.map outside passes)

let run wl ~tiny ~seed ~seconds ~trace =
  let passes, refs = run_passes ~seconds ~trace in
  let t2_err, f6_err, paper_err = Paper.errors ~seed in
  let untraced = List.filter (fun p -> not p.traced) passes in
  let traced = List.filter (fun p -> p.traced) passes in
  let ops_in p = if wl.one_op then 1 else List.length p.result.op_ms in
  let attempted = List.fold_left (fun n p -> n + ops_in p) 0 passes in
  let failed = List.fold_left (fun n p -> n + p.result.failed) 0 passes in
  let errors = List.concat_map (fun p -> p.result.errors) passes in
  (* Every pass must render the same output, traced or not. *)
  let digest = (List.hd passes).output_digest in
  let consistent = List.for_all (fun p -> p.output_digest = digest) passes in
  let golden_ok =
    tiny || seed <> default_seed
    ||
    List.assoc_opt wl.name golden = Some digest
  in
  List.iteri
    (fun i p ->
      Printf.printf
        "# pass %d%s: wall %.3fs, setup %.4fs, heap %.1fMB, %d ops, %d failed, output %s\n" i
        (if p.traced then " (traced)" else "")
        p.result.wall_s (fastest p.setup_s) p.peak_heap_mb (ops_in p)
        p.result.failed p.output_digest)
    passes;
  Printf.printf "# digest %s\n" digest;
  List.iter (fun e -> Printf.printf "# error: %s\n" e) errors;
  if not consistent then
    Printf.printf "# error: passes over the same inputs rendered different outputs%s\n"
      (if trace then " (tracing perturbed the simulation)" else "");
  if not golden_ok then
    Printf.printf "# error: digest at the default seed differs from the recorded one\n";
  let correct = errors = [] && failed = 0 && consistent && golden_ok in
  let fail_frac = float_of_int failed /. float_of_int (max 1 attempted) in
  let ops = if wl.one_op then [ measured_wall untraced *. 1e3 ] else op_times untraced in
  let p95 = percentile 0.95 ops in
  let beyond = List.length (List.filter (fun x -> x > p95) ops) in
  Printf.printf "# fail_frac %.6f (%d failed / %d attempted)\n" fail_frac failed attempted;
  (* The tail is reported at p95 when ten operations lie beyond it; with
     fewer (reproduce has one operation) the line says so. *)
  Printf.printf "# op_p95_ms: nearest-rank p95 of %d operations, %d beyond it%s\n"
    (List.length ops) beyond
    (if beyond < 10 then " (fewer than 10: read it as the slowest operation)" else "");
  Printf.printf "# paper error: table2 %.3f%%, fig6 %.3f%%, pooled %.3f%%\n" t2_err f6_err
    paper_err;
  (* Host times are scaled by how much slower than nominal the host ran
     the reference during this run. *)
  let ref_ms = fastest refs in
  let scale = Reference.nominal_ms /. ref_ms in
  Printf.printf "# reference: fastest %.3f ms of %d runs; timings scaled by %.4f\n" ref_ms
    (List.length refs) scale;
  let metrics =
    if not trace then
      let times =
        [
          ("wall_s", measured_wall untraced);
          (* Each pass's fastest set-up; the median over the passes. *)
          ("setup_s", median (List.map (fun p -> fastest p.setup_s) untraced));
          ("op_p50_ms", median ops);
          ("op_p95_ms", p95);
        ]
      in
      List.iter (fun (name, v) -> Printf.printf "# unscaled %-24s %16.6f\n" name v) times;
      let values =
        List.map (fun (name, v) -> (name, v *. scale)) times
        @ [
            ("peak_heap_mb", median (List.map (fun p -> p.peak_heap_mb) untraced));
            ("paper_err_pct", paper_err);
          ]
      in
      List.map (fun (name, unit) -> (name, unit, List.assoc name values)) Catalog.end_to_end
    else begin
      let layer = layer_medians traced in
      let wall ps = median (List.map (fun p -> p.result.wall_s) ps) in
      let extra =
        [
          ("trace.overhead_pct", 100.0 *. ((wall traced /. wall untraced) -. 1.0));
          ("paper.table2_err_pct", t2_err);
          ("paper.fig6_err_pct", f6_err);
          ("fail_frac", fail_frac);
          ("host.ref_ms", ref_ms);
        ]
      in
      List.map
        (fun (name, unit) ->
          let v =
            match List.assoc_opt name extra with
            | Some v -> v
            | None -> Option.value (layer name) ~default:0.0
          in
          (name, unit, v))
        Catalog.per_layer
    end
  in
  List.iter (fun (name, unit, v) -> Printf.printf "# %-32s %16.6f %s\n" name v unit) metrics;
  if trace then begin
    let spans = List.concat_map (fun p -> p.spans) passes in
    let dir = ".perfbench" in
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (Printf.sprintf "%s-%Ld.trace.json" wl.name seed) in
    write_spans path spans;
    Printf.printf "# wrote %d spans to %s\n" (List.length spans) path
  end;
  print_result ~correct ~attempted ~failed metrics

let usage () =
  prerr_endline
    "usage: main.exe --workload reproduce|fuzz|serve-soak --seed N --seconds S --trace 0|1 \
     [--tiny]";
  exit 2

let () =
  let workload = ref None and seed = ref default_seed and seconds = ref 10.0 in
  let trace = ref false and tiny = ref false and pass = ref None in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      (match Int64.of_string_opt n with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with Some s when s > 0.0 -> seconds := s | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--tiny" :: rest ->
      tiny := true;
      parse rest
    | "--pass" :: i :: rest ->
      (match int_of_string_opt i with Some i -> pass := Some i | None -> usage ());
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match !workload with
  | None -> usage ()
  | Some w -> (
    match List.find_opt (fun wl -> wl.name = w) workloads with
    | None -> usage ()
    | Some wl -> (
      match !pass with
      | Some i -> serve_pass wl ~tiny:!tiny ~seed:!seed ~trace:!trace i
      | None -> run wl ~tiny:!tiny ~seed:!seed ~seconds:!seconds ~trace:!trace))
