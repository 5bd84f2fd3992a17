(* Benchmark entry point: one workload, one process, one OCaml domain.

     main.exe --workload dse|verify|explain --seed N --seconds S --trace 0|1
     main.exe --write-golden perfbench/golden.tsv

   Setup runs several times and reports the median.  The timed loop
   then runs a fixed number of whole rounds of the seeded op order:
   never "as many ops as fit", so a few slow ops cannot decide the
   result by where the clock stops.  Every reported host time is scaled
   to a reference host speed by {!Calib}, and an op's time is its median
   over the rounds.  With [--trace 1] untraced rounds
   alternate with rounds that record spans, and the per-layer metrics
   come from the spans.  The last line of stdout is the JSON result. *)

(* setup runs once before the timed loop and again between its rounds,
   at up to [setup_reps] points in all, so its median samples the host
   over the whole run rather than over its first second *)
let setup_reps = 10

(* a setup shorter than this is repeated back to back at each point where
   setup is sampled, so a cheap setup (a few ms) gets as many samples *)
let setup_min_s = 0.02

(* seconds one round of the op list takes on a 2-vCPU x86 host; a run of
   [S] seconds executes [S / nominal] rounds, and at least enough rounds
   for 100 latency samples *)
let nominal_round_s = function
  | "dse" -> 0.135
  | "verify" -> 5.7
  | _ -> 0.0061

let min_rounds nops = (100 + nops - 1) / nops

let rounds_for ~workload ~nops ~seconds =
  Int.max (min_rounds nops)
    (int_of_float (Float.round (float_of_int seconds /. nominal_round_s workload)))

(* the traced run keeps every span in memory: at most this many traced
   ops (about 100k spans) *)
let trace_max_ops = 5000

let golden_path = Filename.concat "perfbench" "golden.tsv"

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* The timed loop                                                      *)
(* ------------------------------------------------------------------ *)

(* Totals of the ops run so far under one setting (traced or not). *)
type loop = {
  mutable attempted : int;
  mutable failed : int;
  mutable wall : float;
  mutable cpu : float;
  mutable alloc_words : float;
  latencies : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
      (** seconds at the reference host speed, one per op; outside the
          OCaml heap so they do not count in it *)
  mutable hws : Workload.hw list;  (** designs of the first round, by key *)
}

let new_loop ~rounds ~nops =
  { attempted = 0; failed = 0; wall = 0.0; cpu = 0.0; alloc_words = 0.0;
    latencies = Bigarray.(Array1.create float64 c_layout (rounds * nops));
    hws = [] }

let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* one round: every op once, in order *)
let run_round (l : loop) (ops : Workload.op list) =
  let first = l.attempted = 0 in
  let hws = ref [] in
  let w0 = allocated () and c0 = Sys.time () and t0 = now () in
  List.iter
    (fun (op : Workload.op) ->
      let f = Calib.factor () in
      let s = now () in
      let ok, hw =
        match Span.op l.attempted op.Workload.run with
        | r -> r
        | exception e ->
            Printf.eprintf "op %s raised %s\n%!" op.Workload.label (Printexc.to_string e);
            (false, [])
      in
      l.latencies.{l.attempted} <- (now () -. s) *. f;
      l.attempted <- l.attempted + 1;
      if not ok then begin
        l.failed <- l.failed + 1;
        if first then Printf.eprintf "op %s failed its check\n%!" op.Workload.label
      end;
      if first then hws := List.rev_append hw !hws)
    ops;
  l.wall <- l.wall +. (now () -. t0);
  l.cpu <- l.cpu +. (Sys.time () -. c0);
  l.alloc_words <- l.alloc_words +. (allocated () -. w0);
  (* key order, so the geomeans' float sums do not depend on the seed *)
  if first then l.hws <- List.sort (fun a b -> compare a.Workload.key b.Workload.key) !hws

(* A run's time for an op is the median of its scaled times over the
   run's rounds.  Not the fastest: a calibration that misjudged the host
   (a preemption during the kernel) scales a few rounds down, and the
   fastest would pick exactly those.  [typical l ~nops] gives one such
   time per op. *)
let typical l ~nops =
  Stats.per_item Stats.median ~items:nops (Array.init l.attempted (fun i -> l.latencies.{i}))

(* ops per second when every op runs at its typical time *)
let ops_per_s l ~nops = float_of_int nops /. Array.fold_left ( +. ) 0.0 (typical l ~nops)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let geo f hws = Stats.geomean (List.map f hws)

let end_to_end ~setup_s ~peak_heap_words ~nops ~(l : loop) =
  let words t = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 t in
  (* every execution counts, carrying its op's typical time *)
  let b = typical l ~nops in
  let samples = Array.init l.attempted (fun i -> b.(i mod nops)) in
  let ms p = 1000.0 *. Stats.percentile ~p samples in
  [ ("setup_s", setup_s, "s");
    ("ops_per_s", ops_per_s l ~nops, "1/s");
    ("op_p50_ms", ms 50.0, "ms");
    ("op_p90_ms", ms 90.0, "ms");
    ("ok_frac", float_of_int (l.attempted - l.failed) /. float_of_int l.attempted, "frac");
    ("alloc_mw_per_op", l.alloc_words /. float_of_int l.attempted /. 1e6, "Mwords");
    ("heap_mb", float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1048576.0, "MiB");
    ("hw_cycles_geomean", geo (fun h -> h.Workload.cycles) l.hws, "cycles");
    ( "hw_dram_words_geomean",
      geo (fun h -> words h.Workload.reads +. words h.Workload.writes) l.hws,
      "words" );
    ("hw_bram_geomean", geo (fun h -> h.Workload.area.Area_model.bram) l.hws, "M20K");
    ("hw_logic_geomean", geo (fun h -> h.Workload.area.Area_model.logic) l.hws, "ALM");
    ( "hw_speedup_geomean",
      geo (fun h -> h.Workload.base_cycles /. h.Workload.cycles) l.hws,
      "x" ) ]

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

let layers =
  [ "tiling"; "lower"; "simulate"; "event_sim"; "eval"; "profile"; "parser"; "lint"; "area" ]

let tiling_passes =
  [ "fusion"; "cse"; "code-motion"; "simplify"; "strip-mine"; "interchange"; "copy-insert" ]

let per_layer ~(wl : Workload.t) ~nops ~(plain : loop) ~(traced : loop) ~rounds ~pass_delta spans =
  let selfs = Span.self_times spans in
  let sum f = List.fold_left (fun acc x -> acc +. f x) 0.0 in
  let dur (s : Span.t) = s.Span.t1 -. s.Span.t0 in
  let named n = List.filter (fun (s : Span.t) -> s.Span.name = n) spans in
  let total = sum dur (named "op") in
  let self_of layer =
    sum snd (List.filter (fun ((s : Span.t), _) -> layer_of s.Span.name = layer) selfs)
  in
  let share layer = self_of layer /. total in
  let calls n = float_of_int (List.length (named n)) in
  let per_call n = if calls n = 0.0 then 0.0 else sum dur (named n) /. calls n in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let executed = float_of_int traced.attempted in
  let c = Span.counted in
  let pass_ms p =
    match List.assoc_opt ("pass." ^ p) pass_delta with
    | Some (Metrics.Timer { seconds; count }) when count > 0 ->
        1000.0 *. seconds /. float_of_int count
    | _ -> 0.0
  in
  let layer_dur l =
    sum dur (List.filter (fun (s : Span.t) -> layer_of s.Span.name = l) spans)
  in
  let golden =
    if Sys.file_exists golden_path then
      Golden.match_frac (Golden.load golden_path) (List.map (Golden.line wl.Workload.name) traced.hws)
    else 0.0
  in
  let paper = Workload.paper_speedup_ratios traced.hws in
  let residual = self_of "op" /. total in
  [ ("tiling.ms_per_call", 1000.0 *. per_call "tiling", "ms");
    ("tiling.share", share "tiling", "frac");
    ("tiling.nodes_out", ratio (c "tiling.nodes_out") (calls "tiling"), "count") ]
  @ List.map (fun p -> ("pass." ^ p ^ ".ms", pass_ms p, "ms")) tiling_passes
  @ [ ("lower.ms_per_call", 1000.0 *. per_call "lower", "ms");
      ("lower.share", share "lower", "frac");
      ("pass.lower.ms", pass_ms "lower", "ms");
      ("pass.metapipe.ms", pass_ms "metapipe", "ms");
      ("lower.ctrls_out", ratio (c "lower.ctrls_out") (calls "lower"), "count");
      ("lower.mems_out", ratio (c "lower.mems_out") (calls "lower"), "count");
      ("simulate.us_per_call", 1e6 *. per_call "simulate", "us");
      ("simulate.share", share "simulate", "frac");
      ( "simulate.cache_hit_frac",
        ratio (c "simulate.cache_hits") (c "simulate.cache_lookups"),
        "frac" );
      ("event_sim.ms_per_call", 1000.0 *. per_call "event_sim", "ms");
      ("event_sim.share", share "event_sim", "frac");
      ("event_sim.events_per_op", c "event_sim.events" /. executed, "count");
      ("event_sim.us_per_event", 1e6 *. ratio (layer_dur "event_sim") (c "event_sim.events"), "us");
      ("event_sim.fallbacks", c "event_sim.fallbacks" /. float_of_int rounds, "count");
      ("eval.ms_per_call", 1000.0 *. per_call "eval", "ms");
      ("eval.share", share "eval", "frac");
      ( "eval.alloc_mw_per_call",
        ratio (sum (fun (s : Span.t) -> s.Span.minor_words) (named "eval")) (calls "eval") /. 1e6,
        "Mwords" );
      ("profile.attrib_us", 1e6 *. per_call "profile.attrib", "us");
      ("profile.json_us", 1e6 *. per_call "profile.json", "us");
      ("profile.folded_us", 1e6 *. per_call "profile.folded", "us");
      ("profile.json_bytes", ratio (c "profile.json_bytes") (calls "profile.json"), "bytes");
      ("profile.share", share "profile", "frac");
      ("parser.us_per_call", 1e6 *. per_call "parser", "us");
      ("parser.mb_per_s", ratio (c "parser.bytes" /. 1e6) (layer_dur "parser"), "MB/s");
      ("parser.share", share "parser", "frac");
      ("lint.us_per_op", 1e6 *. layer_dur "lint" /. executed, "us");
      ("lint.diagnostics_per_op", c "lint.diagnostics" /. executed, "count");
      ("lint.share", share "lint", "frac");
      ("area.us_per_call", 1e6 *. per_call "area", "us");
      ("area.share", share "area", "frac");
      ("dse.feasible_frac", wl.Workload.dse_feasible_frac, "frac");
      ("hw.golden_match_frac", golden, "frac");
      ( "hw.paper_speedup_ratio_geomean",
        (if paper = [] then 0.0 else Stats.geomean paper),
        "x" );
      ("host.cpu_wall_ratio", plain.cpu /. plain.wall, "frac");
      ( "host.calib_kernel_us",
        1e6 *. Stats.median (Array.of_list !Calib.measured),
        "us" );
      ("trace.overhead_frac", (ops_per_s traced ~nops /. ops_per_s plain ~nops) -. 1.0, "frac");
      ("bench.residual_share", residual, "frac");
      ( "bench.accounted_frac",
        List.fold_left (fun acc l -> acc +. share l) residual layers,
        "frac" ) ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let json_result ~attempted ~failed metrics =
  let metric (name, v, unit) =
    if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is %g" name v);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) attempted failed
    (String.concat ", " (List.map metric metrics))

let spans_path workload seed =
  let dir = Filename.concat "perfbench" "out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Filename.concat dir (Printf.sprintf "spans-%s-seed%d.tsv" workload seed)

let write_golden path =
  let lines =
    List.concat_map
      (fun w ->
        let wl = Workload.setup w ~seed:0 in
        let l = new_loop ~rounds:1 ~nops:(List.length wl.Workload.ops) in
        run_round l wl.Workload.ops;
        if l.failed > 0 then failwith (Printf.sprintf "%s: %d op(s) failed" w l.failed);
        List.map (Golden.line w) l.hws)
      Workload.names
  in
  Golden.write path lines;
  Printf.printf "wrote %d designs to %s\n" (List.length lines) path

let bench ~workload ~seed ~seconds ~trace =
  let setup () =
    let f = Calib.factor ~fresh:true () in
    let wl, t = time (fun () -> Workload.setup workload ~seed) in
    (wl, t *. f)
  in
  let wl, setup0 = setup () in
  let ops = Stats.shuffle ~seed wl.Workload.ops in
  let nops = List.length ops in
  let rounds = rounds_for ~workload ~nops ~seconds in
  Gc.compact ();
  if not trace then begin
    let l = new_loop ~rounds ~nops in
    let every = Int.max 1 (rounds / (setup_reps - 1)) in
    let setups = ref [ setup0 ] and points = ref 1 in
    for r = 1 to rounds do
      run_round l ops;
      if r mod every = 0 && !points < setup_reps then begin
        incr points;
        let rec sample spent =
          let t = snd (setup ()) in
          setups := t :: !setups;
          if spent +. t < setup_min_s then sample (spent +. t)
        in
        sample 0.0
      end
    done;
    let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
    let setup_s = Stats.median (Array.of_list !setups) in
    (l.attempted, l.failed, end_to_end ~setup_s ~peak_heap_words ~nops ~l)
  end
  else begin
    (* untraced and traced rounds alternate, so both see the same host
       conditions and their ratio is the tracing overhead; together they
       take at most the run's time budget *)
    let rounds = Int.max (min_rounds nops) (Int.min (rounds / 2) (trace_max_ops / nops)) in
    let plain = new_loop ~rounds ~nops and traced = new_loop ~rounds ~nops in
    let base = Metrics.snapshot () in
    Span.reset ();
    for _ = 1 to rounds do
      run_round plain ops;
      Span.recording := true;
      run_round traced ops;
      Span.recording := false
    done;
    let pass_delta = Metrics.diff ~base (Metrics.snapshot ()) in
    let spans = Span.recorded () in
    Span.write_tsv (spans_path workload seed) spans;
    ( plain.attempted + traced.attempted,
      plain.failed + traced.failed,
      per_layer ~wl ~nops ~plain ~traced ~rounds ~pass_delta spans )
  end

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let golden = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Workload.names);
      ("--seed", Arg.Set_int seed, " op order and input seed");
      ("--seconds", Arg.Set_int seconds, " length of the timed loop");
      ("--trace", Arg.Set_int trace, " 1 = record spans and report per-layer metrics");
      ("--write-golden", Arg.Set_string golden, " write the golden modeled results and exit") ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) "main.exe";
  if !golden <> "" then write_golden !golden
  else begin
    if not (List.mem !workload Workload.names) then begin
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
    end;
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
    end;
    let attempted, failed, metrics =
      bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
    in
    print_endline (json_result ~attempted ~failed metrics)
  end
