(* ppl-fpga: command-line driver for the parallel-patterns-to-hardware
   compiler, simulator, and experiment harness. *)

open Cmdliner

let benches () = Suite.extended ()

(* A target that Target rejects is a usage error: its message, exit 2. *)
let or_exit = function
  | Ok x -> x
  | Error msg ->
      prerr_endline msg;
      exit 2

let bench_arg =
  Term.(
    const (fun s -> or_exit (Target.bench s))
    $ Arg.(
        required
        & pos 0 (some string) None
        & info [] ~docv:"BENCH" ~doc:"Benchmark name (see $(b,ppl-fpga list))."))

(* An optional BENCH; omitted = the whole suite *)
let suite_arg ~doc =
  Term.(
    const (function None -> benches () | Some s -> [ or_exit (Target.bench s) ])
    $ Arg.(value & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc))

let config_arg =
  let cfg_conv =
    Arg.enum
      [ ("baseline", Experiments.Baseline);
        ("tiled", Experiments.Tiled);
        ("meta", Experiments.Tiled_meta) ]
  in
  Arg.(
    value & opt cfg_conv Experiments.Tiled_meta
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:
          "Hardware configuration: $(b,baseline) (burst-level locality \
           only), $(b,tiled) (tiling, sequential controllers), or $(b,meta) \
           (tiling + metapipelining).")

(* The tiling stages in pipeline order: --stage name, report label, program *)
let stages =
  [ ("fused", "fused", fun (r : Tiling.result) -> r.fused);
    ("stripped", "strip-mined", fun r -> r.stripped);
    ("stripped-copies", "strip-mined+copies", fun r -> r.stripped_with_copies);
    ("tiled", "interchanged", fun r -> r.tiled) ]

let stage_progs r = List.map (fun (_, label, f) -> (label, f r)) stages

let stage_arg =
  Arg.(
    value
    & opt (enum (List.map (fun (key, label, _) -> (key, label)) stages))
        "interchanged"
    & info [ "s"; "stage" ] ~docv:"STAGE"
        ~doc:
          "Pipeline stage to show: $(b,fused), $(b,stripped) (after strip \
           mining), $(b,stripped-copies) (strip mining with tile copies), \
           or $(b,tiled) (after interchange; the final form).")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Evaluate independent sweep points on $(docv) parallel OCaml \
           domains (default: the runtime's recommended count; 1 = \
           sequential).  Results are identical at every domain count.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file covering this run \
           (compiler-pass wall-clock spans plus the simulator's \
           virtual-cycle timeline); load it at https://ui.perfetto.dev \
           or chrome://tracing.  A per-track summary is printed to \
           stderr.  See doc/OBSERVABILITY.md.")

let flag_arg name doc = Arg.(value & flag & info [ name ] ~doc)

let metrics_flag =
  flag_arg "metrics"
    "Print the metrics recorded by this invocation (pass timers, \
     simulator cache hit/miss counters, pool task counts, ...) \
     after the run.  The registry is process-global; the report is \
     the delta against a snapshot taken at command entry."

(* Check that an output file can be written before the work that fills
   it runs, without creating or truncating it: a path that cannot be
   written is a usage error (exit 2), reported as FILE: message like an
   unreadable input.  The file is opened by [write_output] once the output
   is ready, so a usage error found on the way leaves it as it was. *)
let check_output file =
  let fail e =
    Printf.eprintf "%s: %s\n" file (Unix.error_message e);
    exit 2
  in
  let access path perms =
    try Unix.access path perms with Unix.Unix_error (e, _, _) -> fail e
  in
  if Sys.file_exists file then
    if Sys.is_directory file then fail Unix.EISDIR
    else access file [ Unix.W_OK ]
  else begin
    let dir = Filename.dirname file in
    access dir [ Unix.W_OK; Unix.X_OK ];
    if not (Sys.is_directory dir) then fail Unix.ENOTDIR
  end

let write_output file contents =
  try Out_channel.with_open_text file (fun oc -> output_string oc contents)
  with Sys_error msg ->
    prerr_endline msg;
    exit 2

(* Run a command body under the observability flags: tracing is enabled
   for the duration when --trace FILE is given (the file is checked first,
   the JSON is written and a summary goes to stderr afterwards, even if
   the body raises), and the metrics recorded by this invocation are
   printed when --metrics is.  The metrics registry is process-global and
   survives across in-process runs, so the report is a delta against the
   snapshot taken here — not lifetime totals. *)
let obs_wrap trace metrics f =
  let metrics_base = if metrics then Metrics.snapshot () else [] in
  Option.iter
    (fun file ->
      check_output file;
      Trace.clear ();
      Trace.enable ())
    trace;
  Fun.protect f ~finally:(fun () ->
      (match trace with
      | Some file ->
          Trace.disable ();
          write_output file (Trace.to_json ());
          prerr_string (Trace.summary ());
          Printf.eprintf "trace: wrote %s (open in https://ui.perfetto.dev)\n"
            file
      | None -> ());
      if metrics then
        Format.printf "%a" Metrics.pp_values
          (Metrics.diff ~base:metrics_base (Metrics.snapshot ())))

let warn_fallbacks ctx (r : Event_sim.result) =
  if r.Event_sim.fallbacks > 0 then
    Printf.eprintf
      "warning: %s: event engine fell back to the analytic model for %d \
       subtree(s) exceeding %d controller instances; their cycle counts \
       are closed-form estimates, not scheduled timelines\n"
      ctx r.Event_sim.fallbacks Event_sim.max_events

(* publish one event-engine run and (optionally) its timeline *)
let observe_event_run ctx trace (r : Event_sim.result) =
  warn_fallbacks ctx r;
  Metrics.incr ~by:r.Event_sim.events "sim.event.instances";
  Metrics.incr ~by:r.Event_sim.fallbacks "sim.event.fallbacks";
  if trace <> None then Option.iter Sim_trace.record r.Event_sim.timeline

let observe_cache cache =
  let st = Simulate.cache_stats cache in
  Metrics.incr ~by:st.Simulate.hits "sim.cache.hits";
  Metrics.incr ~by:st.Simulate.misses "sim.cache.misses"

(* Machine-readable simulation report, shared by `simulate --json` and
   `timeline --json`.  Json's one number format makes the totals compare
   byte-for-byte with `profile --json`. *)
let report_json ~bench ~config ~engine (rep : Simulate.report) area =
  let traffic t = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) t) in
  Json.Obj
    [ ("bench", String bench); ("config", String config);
      ("engine", String engine); ("cycles", Float rep.Simulate.cycles);
      ("dram_cycles", Float rep.Simulate.dram_cycles);
      ("reads", traffic rep.Simulate.reads);
      ("writes", traffic rep.Simulate.writes);
      ("area", Area_model.to_json area);
      ( "time_ms",
        Float (1e3 *. Machine.seconds Machine.default rep.Simulate.cycles) ) ]

let print_json v = print_endline (Json.to_string v)

let tiling_of bench = Tiling.run ~tiles:bench.Suite.tiles bench.Suite.prog

let stage_prog bench label = List.assoc label (stage_progs (tiling_of bench))

(* The untiled program's result on seeded inputs at the test sizes:
   those sizes and inputs, and whether a program computes that result
   (on the same inputs unless rebound). *)
let reference (bench : Suite.bench) =
  let sizes = bench.Suite.test_sizes in
  let inputs = bench.Suite.gen ~sizes ~seed:2026 in
  let expected = Eval.eval_program bench.Suite.prog ~sizes ~inputs in
  let agrees ?(sizes = sizes) ?(inputs = inputs) prog =
    Value.equal ~eps:1e-6 expected (Eval.eval_program prog ~sizes ~inputs)
  in
  (sizes, inputs, agrees)

(* Bounds.audit's findings, their violation count and the
   "P proven, U unknown, V violations" tally *)
let audit prog =
  let accesses, ds = Bounds.audit prog in
  let v = List.length (Diagnostic.errors ds) in
  let u = List.length ds - v in
  ( accesses, ds, v,
    Printf.sprintf "%d proven, %d unknown, %d violations" (accesses - u - v) u v )

(* The design's top-3 cycle sinks by source pattern, one line each *)
let top_sinks ~indent d ~sizes =
  String.concat ""
    (List.map
       (fun (o : Profile.origin_row) ->
         Printf.sprintf "%s%-36s %14.0f cycles  %5.1f%%\n" indent o.origin
           o.o_cycles (100.0 *. o.o_share))
       (Profile.top_sinks (Profile.of_design d ~sizes) 3))

(* Simulate under the chosen engine, returning the event run when it is
   the report's engine.  The virtual timeline always comes from the event
   engine, so a trace has a simulator section under either engine. *)
let simulate_with ?cache ~ctx ~trace engine d ~sizes =
  match engine with
  | `Analytic ->
      let rep = Simulate.run ?cache d ~sizes in
      if trace <> None then
        observe_event_run ctx trace (Event_sim.run ~record:true d ~sizes);
      (rep, None)
  | `Event ->
      let r = Event_sim.run ~record:(trace <> None) d ~sizes in
      observe_event_run ctx trace r;
      (r.Event_sim.report, Some r)

(* Each target's diagnostics, as text under its heading or as one JSON
   array of objects led by its fields; exit 1 on any error severity. *)
let print_diagnostics ~json results =
  if json then
    print_json
      (List
         (List.map
            (fun (_, fields, ds) ->
              Json.Obj
                (fields
                @ [ ("summary", Json.String (Diagnostic.summary ds));
                    ("diagnostics", Diagnostic.list_to_json ds) ]))
            results))
  else
    List.iter
      (fun (heading, _, ds) ->
        Printf.printf "%s: %s\n" heading (Diagnostic.summary ds);
        Format.printf "%a" Diagnostic.pp_list ds)
      results;
  if List.exists (fun (_, _, ds) -> Diagnostic.has_errors ds) results then
    exit 1

(* ------------------------------ commands ---------------------------- *)

let list_cmd =
  let run () =
    Experiments.print_table5 (Suite.all ());
    let paper = List.map (fun b -> b.Suite.name) (Suite.all ()) in
    Printf.printf "\nExtension applications (beyond the paper's Table 5)\n";
    List.iter
      (fun (b : Suite.bench) ->
        if not (List.mem b.Suite.name paper) then
          Printf.printf "%-12s %-38s %s\n" b.Suite.name b.Suite.description
            b.Suite.collection_ops)
      (benches ())
  in
  Cmd.v
    (Cmd.info "list"
       ~doc:"List the benchmark suite (Table 5) and extension applications.")
    Term.(const run $ const ())

let ir_cmd =
  let run bench stage =
    print_endline (Pp.program_to_string (stage_prog bench stage))
  in
  Cmd.v
    (Cmd.info "ir"
       ~doc:"Print a benchmark's parallel-pattern IR at a pipeline stage.")
    Term.(const run $ bench_arg $ stage_arg)

let design_cmd =
  let run bench config =
    print_string
      (Hw_pp.design_to_string (Experiments.design_of config bench))
  in
  Cmd.v
    (Cmd.info "design"
       ~doc:"Print the generated hardware design (controllers + memories).")
    Term.(const run $ bench_arg $ config_arg)

let maxj_cmd =
  let run bench config =
    print_string (Maxj.emit (Experiments.design_of config bench))
  in
  Cmd.v
    (Cmd.info "maxj" ~doc:"Emit the MaxJ-like HGL kernel for a benchmark.")
    Term.(const run $ bench_arg $ config_arg)

let dot_cmd =
  let run bench config =
    print_string (Dot.emit (Experiments.design_of config bench))
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:
         "Emit a Graphviz block diagram of the generated hardware (the \
          Fig. 6 view).")
    Term.(const run $ bench_arg $ config_arg)

(* --tiles/--sizes NAME=N,... bindings, checked by Target *)
let bindings_arg name docv doc =
  Arg.(value & opt (list (pair ~sep:'=' string int)) [] & info [ name ] ~docv ~doc)

let tiles_arg = bindings_arg "tiles" "NAME=SIZE,..."
let sizes_arg = bindings_arg "sizes" "NAME=N,..."

let engine_arg =
  Arg.(
    value
    & opt (enum [ ("analytic", `Analytic); ("event", `Event) ]) `Analytic
    & info [ "e"; "engine" ] ~docv:"ENGINE"
        ~doc:
          "Simulation engine: $(b,analytic) (hierarchical closed forms) or \
           $(b,event) (per-instance scheduling with double-buffer \
           handshakes and a DRAM calendar).")

let breakdown_flag =
  flag_arg "breakdown" "Per-controller timing table."

let bottlenecks_flag =
  flag_arg "bottlenecks"
    "Per-metapipeline bottleneck table: the slowest stage and \
     whether compute or DRAM sets the steady state (the analysis \
     behind the gda rebalancing)."

let json_flag =
  flag_arg "json"
    "Machine-readable output: one JSON object with cycles, DRAM \
     traffic and area (numbers formatted as in $(b,profile --json), \
     so totals compare byte-for-byte)."

let simulate_cmd =
  let run bench config engine breakdown bottlenecks json trace metrics =
    obs_wrap trace metrics @@ fun () ->
    let d = Experiments.design_of config bench in
    (* one cache serves the report, the breakdown and the bottleneck
       table from a single simulation tree *)
    let cache = Simulate.cache () in
    let rep, event =
      simulate_with ~cache ~ctx:bench.Suite.name ~trace engine d
        ~sizes:bench.Suite.sim_sizes
    in
    (match event with
    | Some r when not json ->
        Printf.printf "(event engine: %d controller instances, %d fallbacks)\n"
          r.Event_sim.events r.Event_sim.fallbacks
    | _ -> ());
    let a = Area_model.of_design d in
    if json then
      print_json
        (report_json ~bench:bench.Suite.name
           ~config:(Experiments.config_name config)
           ~engine:(if event = None then "analytic" else "event")
           rep a)
    else begin
      Printf.printf "%s / %s\n" bench.Suite.name
        (Experiments.config_name config);
      Format.printf "%a" Simulate.pp_report rep;
      Format.printf "area: %a@." Area_model.pp a;
      Format.printf "utilization (Stratix V): %a%s@." Area_model.pp_utilization
        a
        (if Area_model.fits a then "" else "  ** EXCEEDS CHIP **");
      Printf.printf "time at %.0f MHz: %.3f ms\n"
        Machine.default.Machine.clock_mhz
        (1e3 *. Machine.seconds Machine.default rep.Simulate.cycles);
      if breakdown then
        Format.printf "%a"
          Simulate.pp_breakdown
          (Simulate.breakdown ~cache d ~sizes:bench.Suite.sim_sizes);
      if bottlenecks then
        Format.printf "%a"
          Simulate.pp_bottlenecks
          (Simulate.bottlenecks ~cache d ~sizes:bench.Suite.sim_sizes)
    end;
    observe_cache cache
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Simulate a benchmark's design: cycles, DRAM traffic, area.")
    Term.(
      const run $ bench_arg $ config_arg $ engine_arg $ breakdown_flag
      $ bottlenecks_flag $ json_flag $ trace_arg $ metrics_flag)

let verify_cmd =
  let run bench =
    let r = tiling_of bench in
    let _, _, agrees = reference bench in
    List.iter
      (fun (label, prog) ->
        Printf.printf "%-22s %s\n" label (if agrees prog then "ok" else "MISMATCH"))
      (stage_progs r)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Evaluate every tiling stage with the reference interpreter and \
          check it against the untiled program.")
    Term.(const run $ bench_arg)

let fig5c_cmd =
  let n = Arg.(value & opt int 1024 & info [ "n" ] ~doc:"Number of points.") in
  let k = Arg.(value & opt int 256 & info [ "k" ] ~doc:"Number of clusters.") in
  let d = Arg.(value & opt int 32 & info [ "d" ] ~doc:"Point dimensionality.") in
  let b0 = Arg.(value & opt int 64 & info [ "b0" ] ~doc:"Tile size for n.") in
  let b1 = Arg.(value & opt int 16 & info [ "b1" ] ~doc:"Tile size for k.") in
  let run n k d b0 b1 =
    Experiments.print_fig5c (Experiments.fig5c ~n ~k ~d ~b0 ~b1 ())
  in
  Cmd.v
    (Cmd.info "fig5c"
       ~doc:
         "Reproduce Fig. 5c: k-means main-memory reads and on-chip storage \
          per structure for the fused, strip-mined and interchanged forms.")
    Term.(const run $ n $ k $ d $ b0 $ b1)

let stats_cmd =
  let run bench =
    let r = tiling_of bench in
    print_endline Ir_stats.header;
    List.iter
      (fun (name, prog) ->
        print_endline (Ir_stats.row name (Ir_stats.of_program prog)))
      (* the stats table's label column is 18 wide *)
      (("source", bench.Suite.prog)
      :: List.map
           (function "strip-mined+copies", p -> ("with copies", p) | s -> s)
           (stage_progs r))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Show IR statistics for each transformation stage.")
    Term.(const run $ bench_arg)

let dse_cmd =
  let budget =
    Arg.(
      value & opt float 2560.0
      & info [ "bram" ] ~docv:"BLOCKS"
          ~doc:"On-chip memory budget in M20K blocks (Stratix V: 2560).")
  in
  let pars_arg =
    Arg.(
      value & opt (list int) []
      & info [ "pars" ] ~docv:"P1,P2,..."
          ~doc:
            "Also sweep these parallelism factors jointly with the tile \
             sizes (default: the single default factor).")
  in
  let profile_flag =
    flag_arg "profile"
      "After the sweep, rebuild the selected design and print its \
       top-3 cycle sinks by source pattern — what to optimize next \
       at the chosen tile sizes."
  in
  let run bench budget pars domains profile trace metrics =
    obs_wrap trace metrics @@ fun () ->
    Printf.printf
      "tile-size exploration for %s (budget %.0f M20K, sizes at sim scale)\n\n"
      bench.Suite.name budget;
    let res = Dse.explore_bench ?domains ~bram_budget:budget ~pars bench in
    Dse.print_result res;
    if profile then
      match res.Dse.best with
      | None -> print_endline "\nprofile: no feasible point to profile"
      | Some best ->
          let r = Tiling.run ~tiles:best.Dse.tiles bench.Suite.prog in
          let d =
            Lower.program
              { Lower.default_opts with Lower.par = best.Dse.par }
              r.Tiling.tiled
          in
          Printf.printf "\ntop cycle sinks for the selected tile (%s, par %d)\n%s"
            (String.concat ", "
               (List.map
                  (fun (s, b) -> Printf.sprintf "%s=%d" (Sym.base s) b)
                  best.Dse.tiles))
            best.Dse.par
            (top_sinks ~indent:"  " d ~sizes:bench.Suite.sim_sizes)
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Automated tile-size (and optionally parallelism-factor) \
          selection (the paper's future-work loop): sweep candidates in \
          parallel across OCaml domains, model cycles and area, pick the \
          fastest design that fits the memory budget and the chip.")
    Term.(
      const run $ bench_arg $ budget $ pars_arg $ domains_arg $ profile_flag
      $ trace_arg $ metrics_flag)

let compile_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A .ppl program (the syntax ir/export emit).")
  in
  let tiles_arg = tiles_arg "Tile configuration by size-parameter base name." in
  let sizes_arg =
    sizes_arg
      "Concrete size-parameter values; when given, the compiled design is \
       also simulated at them."
  in
  let run file tiles sizes engine trace metrics =
    obs_wrap trace metrics @@ fun () ->
    let t =
      or_exit (Target.resolve ~cmd:"compile" ~files_only:true ~tiles ~sizes file)
    in
    let prog = t.Target.prog in
    Printf.printf "parsed %s: %d IR nodes, result type ok\n" prog.Ir.pname
      (Rewrite.node_count prog.Ir.body);
    let r = Tiling.run ~tiles:t.Target.tiles prog in
    print_endline (Pp.program_to_string r.Tiling.tiled);
    let d = Lower.program Lower.default_opts r.Tiling.tiled in
    print_string (Hw_pp.design_to_string d);
    (match Hw_lint.check_all d with
    | [] -> print_endline "design check: ok"
    | fs ->
        List.iter (fun f -> Format.printf "design check: %a@." Diagnostic.pp f) fs;
        if Diagnostic.has_errors fs then exit 1
        else Printf.printf "design check: ok (%s)\n" (Diagnostic.summary fs));
    if t.Target.sizes <> [] then begin
      let rep, _ =
        simulate_with ~ctx:prog.Ir.pname ~trace engine d ~sizes:t.Target.sizes
      in
      Format.printf "%a" Simulate.pp_report rep;
      Format.printf "area: %a@." Area_model.pp (Area_model.of_design d)
    end
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Parse a .ppl file, tile it, print and validate the hardware \
          design, and (with --sizes) simulate it.")
    Term.(
      const run $ file $ tiles_arg $ sizes_arg $ engine_arg $ trace_arg
      $ metrics_flag)

let bounds_cmd =
  let run bench stage =
    let accesses, ds, v, tally = audit (stage_prog bench stage) in
    Format.printf "%a" Diagnostic.pp_list ds;
    Printf.printf "%d accesses: %s\n" accesses tally;
    if v > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "bounds"
       ~doc:
         "Statically verify that every input access of the (tiled) program \
          stays within its declared shape.")
    Term.(const run $ bench_arg $ stage_arg)

let export_cmd =
  let outdir =
    Arg.(
      value & opt string "artifacts"
      & info [ "o"; "outdir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run outdir =
    (try Unix.mkdir outdir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _)
      when Sys.file_exists outdir && Sys.is_directory outdir ->
        ()
    | Unix.Unix_error (e, _, _) ->
        let e = if e = Unix.EEXIST then Unix.ENOTDIR else e in
        Printf.eprintf "%s: %s\n" outdir (Unix.error_message e);
        exit 2);
    let write name contents =
      write_output (Filename.concat outdir name) contents;
      Printf.printf "  wrote %s\n" (Filename.concat outdir name)
    in
    List.iter
      (fun (bench : Suite.bench) ->
        let r = tiling_of bench in
        let d = Experiments.design_of Experiments.Tiled_meta bench in
        write (bench.Suite.name ^ ".ppl") (Pp.program_to_string r.Tiling.tiled);
        write (bench.Suite.name ^ ".maxj") (Maxj.emit d);
        write (bench.Suite.name ^ ".dot") (Dot.emit d);
        write (bench.Suite.name ^ ".design") (Hw_pp.design_to_string d))
      (benches ());
    Printf.printf "exported %d benchmarks to %s/\n" (List.length (benches ()))
      outdir
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Write every benchmark's tiled IR, MaxJ-like kernel, Graphviz \
          diagram and design listing to a directory.")
    Term.(const run $ outdir)

let traffic_cmd =
  let profile_flag =
    flag_arg "profile"
      "Also execute the tiled program in the interpreter (at test \
       sizes) and report its independent per-input word counts."
  in
  let run bench profile =
    let rows = Experiments.traffic ~profile bench in
    Experiments.print_traffic bench.Suite.name rows;
    if profile then
      print_endline
        "(profile runs at test sizes; simulated columns use the same sizes)"
  in
  Cmd.v
    (Cmd.info "traffic"
       ~doc:
         "Per-input DRAM read words under the baseline and tiled designs \
          (the Fig. 5c analysis generalized to any benchmark).")
    Term.(const run $ bench_arg $ profile_flag)

let check_cmd =
  let profile_flag =
    flag_arg "profile"
      "After the checks, print each benchmark's top-3 cycle sinks \
       by source pattern (meta configuration, simulation sizes)."
  in
  (* each bench's checks print into its own buffer, so the whole suite
     can run benches on parallel domains and still report in order *)
  let check_bench ~profile buf (bench : Suite.bench) =
    let failures = ref 0 in
    let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    let report name ok detail =
      pr "  %-28s %s%s\n" name
        (if ok then "ok" else "FAIL")
        (if detail = "" then "" else " (" ^ detail ^ ")");
      if not ok then incr failures
    in
    let clean name ds =
      report name (ds = [])
        (String.concat "; " (List.map (Format.asprintf "%a" Diagnostic.pp) ds))
    in
    (* clean at error severity: the errors if not, else the summary *)
    let lint_clean name ds =
      if Diagnostic.has_errors ds then clean name (Diagnostic.errors ds)
      else report name true (Diagnostic.summary ds)
    in
    pr "%s\n" bench.Suite.name;
    (* 0. the source program is PPL-lint-clean at error severity — this
       runs before any tiling, where a race or legality finding still
       points at the pattern that caused it *)
    lint_clean "lint-ir: source" (Ppl_lint.check_all bench.Suite.prog);
    let r = tiling_of bench in
    let stages = stage_progs r in
    (* 1. every stage type-checks *)
    List.iter
      (fun (name, prog) ->
        match Validate.check_program prog with
        | _ -> report ("types: " ^ name) true ""
        | exception Validate.Type_error msg -> report ("types: " ^ name) false msg)
      stages;
    (* 2. every stage evaluates to the reference result *)
    let sizes, inputs, agrees = reference bench in
    List.iter
      (fun (name, prog) -> report ("semantics: " ^ name) (agrees prog) "")
      stages;
    (* 3. printed tiled IR parses back to an equivalent program *)
    (match
       let parsed = Parser.program_of_string (Pp.program_to_string r.Tiling.tiled) in
       (* the parser mints fresh symbols: rebind sizes by base name and
          inputs by declaration order *)
       let by_base = List.map (fun (s, v) -> (Sym.base s, v)) sizes in
       let sizes =
         List.map (fun s -> (s, List.assoc (Sym.base s) by_base)) parsed.Ir.size_params
       in
       let inputs =
         List.map2
           (fun (pi : Ir.input) (oi : Ir.input) ->
             (pi.Ir.iname, List.assoc oi.Ir.iname inputs))
           parsed.Ir.inputs bench.Suite.prog.Ir.inputs
       in
       agrees parsed ~sizes ~inputs
     with
    | ok -> report "printer/parser roundtrip" ok ""
    | exception e -> report "printer/parser roundtrip" false (Printexc.to_string e));
    (* 4. static bounds on the tiled program *)
    let _, _, v, tally = audit r.Tiling.tiled in
    report "bounds: tiled accesses" (v = 0) tally;
    (* 5. every configuration's design, lowered from the one tiling,
       passes the hardware validator and is lint-clean at error severity *)
    let designs =
      List.map
        (fun cfg ->
          let d = Experiments.lower cfg r in
          let name = Experiments.config_name cfg in
          clean ("design: " ^ name) (Hw_check.check d);
          lint_clean ("lint: " ^ name) (Hw_lint.check d);
          (* the source linter's tile-vs-cache predictions must agree with
             the memories Lower actually instantiated for this config *)
          let lowered_prog, cache_leftover =
            match cfg with
            | Experiments.Baseline -> (r.Tiling.fused, false)
            | Experiments.Tiled | Experiments.Tiled_meta ->
                (r.Tiling.tiled, true)
          in
          clean ("access classes: " ^ name)
            (Ppl_lint.crosscheck ~cache_leftover lowered_prog d);
          (cfg, d))
        [ Experiments.Baseline; Experiments.Tiled; Experiments.Tiled_meta ]
    in
    (* 6. the two simulation engines agree on the final design *)
    let d = List.assoc Experiments.Tiled_meta designs in
    let a = (Simulate.run d ~sizes:bench.Suite.sim_sizes).Simulate.cycles in
    let er = Event_sim.run d ~sizes:bench.Suite.sim_sizes in
    warn_fallbacks (bench.Suite.name ^ " (engines agree)") er;
    let e = er.Event_sim.report.Simulate.cycles in
    let dev = Float.abs (a -. e) /. Float.max a e in
    report "engines agree" (dev < 0.02) (Printf.sprintf "deviation %.2f%%" (100.0 *. dev));
    (* 7. the design fits the chip *)
    let area = Area_model.of_design d in
    report "fits Stratix V" (Area_model.fits area) "";
    if profile then
      pr "  top cycle sinks (meta):\n%s"
        (top_sinks ~indent:"    " d ~sizes:bench.Suite.sim_sizes);
    !failures
  in
  let run targets domains profile =
    let results =
      Pool.map ?domains
        (fun b ->
          let buf = Buffer.create 1024 in
          let n = check_bench ~profile buf b in
          (Buffer.contents buf, n))
        targets
    in
    let failures =
      List.fold_left
        (fun acc (out, n) ->
          print_string out;
          acc + n)
        0 results
    in
    if failures > 0 then begin
      Printf.printf "%d check(s) failed\n" failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run every validator on a benchmark (or the suite, with benchmarks \
          checked in parallel across OCaml domains): source-level pattern \
          lint (Ppl_lint, before tiling), type checker on all tiling \
          stages, interpreter equivalence against the source program, \
          printer/parser roundtrip, static bounds, access-classification \
          cross-check against the lowered memories, analytic/event engine \
          agreement, and chip fit.")
    Term.(
      const run
      $ suite_arg ~doc:"Benchmark to check; omitted = the whole suite."
      $ domains_arg $ profile_flag)

let lint_cmd =
  let json_flag =
    flag_arg "json"
      "Machine-readable output: a JSON array of per-design objects, \
       each with the design name and its diagnostics."
  in
  let run targets config json =
    let cfg = Experiments.config_name config in
    print_diagnostics ~json
      (List.map
         (fun (b : Suite.bench) ->
           let d = Experiments.design_of config b in
           ( b.Suite.name ^ " / " ^ cfg,
             [ ("bench", Json.String b.Suite.name);
               ("design", String d.Hw.design_name); ("config", String cfg) ],
             Hw_lint.check_all d ))
         targets)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the design-level static analyzer on a benchmark (or the \
          suite): structural validation (Hw_check) plus semantic lints — \
          metapipeline write-after-read races, banking and port conflicts, \
          FIFO rate/deadlock analysis, tile-capacity overflows, and \
          performance hints.  Codes are cataloged in doc/LINTS.md.  Exits \
          non-zero iff any error-severity diagnostic is produced.")
    Term.(
      const run
      $ suite_arg ~doc:"Benchmark to lint; omitted = the whole suite."
      $ config_arg $ json_flag)

let lint_ir_cmd =
  let target =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:
            "Benchmark name or a .ppl source file; omitted = the whole \
             suite.")
  in
  let json_flag =
    flag_arg "json"
      "Machine-readable output: a JSON array of per-program objects, \
       each with the program name and its diagnostics."
  in
  let run target json =
    let progs =
      match target with
      | None ->
          List.map
            (fun (b : Suite.bench) -> (b.Suite.name, b.Suite.prog))
            (benches ())
      | Some t ->
          let t = or_exit (Target.resolve ~cmd:"lint-ir" t) in
          [ (t.Target.name, t.Target.prog) ]
    in
    print_diagnostics ~json
      (List.map
         (fun (name, prog) ->
           (name, [ ("program", Json.String name) ], Ppl_lint.check_all prog))
         progs)
  in
  Cmd.v
    (Cmd.info "lint-ir"
       ~doc:
         "Run the source-level pattern analyzer on a benchmark, a .ppl \
          file, or the whole suite — before any tiling or lowering: \
          MultiFold/Fold accumulator race detection via affine write-map \
          injectivity, access-pattern classification (tile buffer vs \
          cache/CAM service), strip-mining legality, hygiene, and static \
          bounds.  Codes (PPL2xx) are cataloged in doc/LINTS.md.  Exits \
          non-zero iff any error-severity diagnostic is produced.")
    Term.(const run $ target $ json_flag)

let fig7_cmd =
  let run domains trace metrics =
    obs_wrap trace metrics @@ fun () ->
    Experiments.print_fig7 (Experiments.fig7 ?domains (Suite.all ()))
  in
  Cmd.v
    (Cmd.info "fig7"
       ~doc:
         "Reproduce Fig. 7: speedups and relative resource usage of tiling \
          and metapipelining over the baseline, across the suite \
          (benchmarks evaluated in parallel across OCaml domains).")
    Term.(const run $ domains_arg $ trace_arg $ metrics_flag)

let timeline_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the trace JSON to $(docv) instead of stdout.")
  in
  let run bench config out json =
    (* compile before enabling the collector: the emitted JSON then holds
       only virtual-clock events and is bit-deterministic *)
    Option.iter check_output out;
    let d = Experiments.design_of config bench in
    Trace.clear ();
    Trace.enable ();
    let r = Event_sim.run ~record:true d ~sizes:bench.Suite.sim_sizes in
    warn_fallbacks bench.Suite.name r;
    Option.iter Sim_trace.record r.Event_sim.timeline;
    Trace.disable ();
    let trace_json = Trace.to_json () in
    (match out with
    | Some file ->
        write_output file trace_json;
        Printf.eprintf "timeline: wrote %s (open in https://ui.perfetto.dev)\n"
          file
    | None -> if not json then print_string trace_json);
    if json then
      (* --json parity with `simulate`: the same report object on stdout
         (write the trace itself with -o FILE) *)
      print_json
        (report_json ~bench:bench.Suite.name
           ~config:(Experiments.config_name config)
           ~engine:"event" r.Event_sim.report
           (Area_model.of_design d));
    prerr_string (Trace.summary ())
  in
  Cmd.v
    (Cmd.info "timeline"
       ~doc:
         "Simulate with the event engine and emit its virtual-cycle Gantt \
          timeline (one track per metapipeline stage, one per top-level \
          controller, plus the DRAM-busy track) as Chrome/Perfetto \
          trace-event JSON on stdout; a per-track utilization summary \
          goes to stderr.  The output is deterministic: bit-identical \
          across runs.  An unknown benchmark name is a usage error (exit \
          2).  With $(b,--json) stdout instead carries the same \
          machine-readable report object as $(b,simulate --json) (pass \
          $(b,-o) to still write the trace).")
    Term.(const run $ bench_arg $ config_arg $ out_arg $ json_flag)

let profile_cmd =
  let target =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TARGET"
          ~doc:"Benchmark name or a .ppl source file.")
  in
  let tiles_arg =
    tiles_arg
      "Tile configuration by size-parameter base name (.ppl targets only; \
       $(b,-c) fixes a benchmark's tiles)."
  in
  let sizes_arg =
    sizes_arg
      "Concrete size-parameter values to profile at (required for .ppl \
       targets; benchmarks default to their simulation sizes)."
  in
  let profile_json_flag =
    flag_arg "json"
      "Machine-readable output: the full attribution tree and \
       per-origin table as one JSON object."
  in
  let folded_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "folded" ] ~docv:"FILE"
          ~doc:
            "Also write folded flamegraph stacks (one \
             $(i,frame;frame;... weight) line per provenance trail, \
             weight = self cycles) to $(docv); feed to flamegraph.pl or \
             speedscope.")
  in
  let run target config tiles sizes json folded trace metrics =
    obs_wrap trace metrics @@ fun () ->
    Option.iter check_output folded;
    let t =
      or_exit (Target.resolve ~cmd:"profile" ~need_sizes:true ~tiles ~sizes target)
    in
    let design =
      Experiments.lower config (Tiling.run ~tiles:t.Target.tiles t.Target.prog)
    in
    let p = Profile.of_design design ~sizes:t.Target.sizes in
    (match folded with
    | Some file ->
        write_output file (Profile.to_folded p);
        Printf.eprintf
          "profile: wrote %s (render with flamegraph.pl or speedscope)\n" file
    | None -> ());
    if json then print_string (Profile.to_json p)
    else Format.printf "%a" Profile.pp_text p
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Attribute simulated cycles (split into fill, steady-state and \
          DRAM-serialized time), DRAM traffic and modeled area back to \
          the source patterns they came from, via the provenance stamped \
          on every controller and memory.  Attribution is complete: the \
          tree's cycles sum exactly to the $(b,simulate) total.  Output \
          backends: aligned text, $(b,--json), and $(b,--folded) \
          flamegraph stacks.")
    Term.(
      const run $ target $ config_arg $ tiles_arg $ sizes_arg
      $ profile_json_flag $ folded_arg $ trace_arg $ metrics_flag)

let default =
  Term.(ret (const (`Help (`Pager, None))))

let setup_logs verbose =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let () =
  let info =
    Cmd.info "ppl-fpga" ~version:"1.0.0"
      ~doc:
        "Configurable hardware from parallel patterns: tiling and \
         metapipelining compiler with an FPGA performance model."
  in
  (* light-weight: -v anywhere on the command line enables pass tracing
     (stripped before cmdliner parses the rest) *)
  let verbose = Array.exists (fun a -> a = "-v" || a = "--verbose") Sys.argv in
  setup_logs verbose;
  let argv =
    Array.of_list
      (List.filter
         (fun a -> a <> "-v" && a <> "--verbose")
         (Array.to_list Sys.argv))
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group ~default info
          [ list_cmd; ir_cmd; design_cmd; maxj_cmd; dot_cmd; simulate_cmd;
            profile_cmd; timeline_cmd; verify_cmd; check_cmd; lint_cmd;
            lint_ir_cmd; traffic_cmd; stats_cmd; bounds_cmd; compile_cmd;
            dse_cmd; export_cmd; fig5c_cmd; fig7_cmd ]))
