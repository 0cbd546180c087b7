(* The metrics the benchmark reports, by name and unit. BENCHMARK.json
   lists the same names; [run.py --selftest] checks the two agree. *)

let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("op_p95_ms", "ms");
    ("peak_heap_mb", "MB");
    ("paper_err_pct", "%");
  ]

let experiment_names = Ninja_experiments.Registry.names

let per_layer =
  [
    ("engine.events", "count");
    ("engine.events_per_s", "1/s");
    ("engine.words_per_event", "words");
    ("engine.live_fibers_max", "count");
  ]
  @ List.concat_map
      (fun e -> [ ("exp." ^ e ^ ".wall_s", "s"); ("exp." ^ e ^ ".mwords", "Mwords") ])
      experiment_names
  @ [
      ("fabric.links_end", "count");
      ("fabric.active_flows_max", "count");
      ("fabric.sweep_us", "us");
      ("probe.events", "count");
    ]
  @ List.map (fun t -> ("probe." ^ t, "count")) (Bus_count.topics @ [ "other" ])
  @ [
      ("checker.s", "s");
      ("checker.us_per_event", "us");
      ("checker.share", "ratio");
      ("checker.finish_ms", "ms");
      ("flowmon.s", "s");
      ("flowmon.ticks", "count");
      ("serve.self_s", "s");
      ("serve.window_ms.first_decile", "ms");
      ("serve.window_ms.last_decile", "ms");
      ("ctl.submitted", "count");
      ("ctl.completed", "count");
      ("ctl.rejected", "count");
      ("ctl.dropped", "count");
      ("ctl.deferred", "count");
      ("ctl.swap.proposed", "count");
      ("ctl.swap.noop", "count");
      ("fuzz.events_per_scenario", "count");
      ("fuzz.probe_per_scenario", "count");
    ]
  @ List.concat_map
      (fun c -> [ ("fuzz.ms." ^ c, "ms"); ("fuzz.n." ^ c, "count") ])
      Fuzz_wl.class_names
  @ List.concat_map
      (fun phase ->
        [
          ("gc." ^ phase ^ ".minor_mwords", "Mwords");
          ("gc." ^ phase ^ ".major_mwords", "Mwords");
          ("gc." ^ phase ^ ".major_collections", "count");
        ])
      [ "setup"; "run" ]
  @ [
      ("trace.overhead_pct", "%");
      ("paper.table2_err_pct", "%");
      ("paper.fig6_err_pct", "%");
      ("fail_frac", "ratio");
      ("host.ref_ms", "ms");
    ]
