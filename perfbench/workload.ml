(* The benchmark's three workloads.  [setup name ~seed] does all the
   preparation a workload needs (suite, inputs, designs, reference run)
   and returns its fixed op list.  Every op calls the compiler's public
   functions directly, with [~domains:1] wherever a pool is involved, and
   wraps each call into a layer in a {!Span} named after that layer. *)

(* The modeled result of one design the workload's ops produce.  Every
   field is an exact function of the design: a change to any of them is a
   behaviour change, not noise. *)
type hw = {
  key : string;  (** unique within the workload *)
  bench : string;
  variant : string;  (** "baseline" / "tiled" / "meta", or the tile assignment *)
  cycles : float;
  dram_cycles : float;
  reads : Simulate.traffic;
  writes : Simulate.traffic;
  area : Area_model.t;
  base_cycles : float;  (** the same benchmark's Baseline design *)
}

type op = {
  label : string;
  run : unit -> bool * hw list;
      (** whether every check of the op passed, and the designs it made *)
}

type t = {
  name : string;
  ops : op list;
  dse_feasible_frac : float;
      (** share of the reference DSE's points it judged feasible; 0 outside [dse] *)
}

let names = [ "dse"; "verify"; "explain" ]

(* ------------------------------------------------------------------ *)
(* Layer calls, each inside its span                                   *)
(* ------------------------------------------------------------------ *)

let tile ~tiles prog =
  let r = Span.with_ "tiling" (fun () -> Tiling.run ~tiles prog) in
  if !Span.recording then
    Span.count "tiling.nodes_out"
      (float_of_int (Rewrite.node_count r.Tiling.tiled.Ir.body));
  r

let lower opts prog =
  let d = Span.with_ "lower" (fun () -> Lower.program opts prog) in
  if !Span.recording then begin
    Span.count "lower.ctrls_out"
      (float_of_int (Hw.fold_ctrls (fun n _ -> n + 1) 0 d.Hw.top));
    Span.count "lower.mems_out" (float_of_int (List.length d.Hw.mems))
  end;
  d

let note_cache cache =
  let s = Simulate.cache_stats cache in
  Span.count "simulate.cache_hits" (float_of_int s.Simulate.hits);
  Span.count "simulate.cache_lookups" (float_of_int (s.Simulate.hits + s.Simulate.misses))

(* a cold run with an explicit fresh cache, so its hit rate is visible;
   [Simulate.run] without one makes the same fresh cache internally *)
let simulate ?machine d ~sizes =
  let cache = Simulate.cache () in
  let r = Span.with_ "simulate" (fun () -> Simulate.run ?machine ~cache d ~sizes) in
  note_cache cache;
  r

let event_sim d ~sizes =
  let r = Span.with_ "event_sim" (fun () -> Event_sim.run d ~sizes) in
  Span.count "event_sim.events" (float_of_int r.Event_sim.events);
  Span.count "event_sim.fallbacks" (float_of_int r.Event_sim.fallbacks);
  r

let eval prog ~sizes ~inputs =
  Span.with_ "eval" (fun () -> Eval.eval_program prog ~sizes ~inputs)

let area d = Span.with_ "area" (fun () -> Area_model.of_design d)

let lint f =
  let ds = Span.with_ "lint" f in
  Span.count "lint.diagnostics" (float_of_int (List.length ds));
  ds

let lint_clean f = not (Diagnostic.has_errors (lint f))

let roundtrip prog =
  Span.with_ "parser" (fun () ->
      let text = Pp.program_to_string prog in
      Span.count "parser.bytes" (float_of_int (String.length text));
      Parser.program_of_string text)

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let tiles_to_string tiles =
  String.concat ","
    (List.map (fun (s, b) -> Printf.sprintf "%s=%d" (Sym.base s) b) tiles)

let cartesian (candidates : (Sym.t * int list) list) =
  List.fold_right
    (fun (s, sizes) acc ->
      List.concat_map (fun rest -> List.map (fun b -> (s, b) :: rest) sizes) acc)
    candidates [ [] ]

let cycles_of d ~sizes = (Simulate.run d ~sizes).Simulate.cycles

let base_cycles (b : Suite.bench) =
  cycles_of (Experiments.design_of Experiments.Baseline b) ~sizes:b.Suite.sim_sizes

let hw_of ~(bench : Suite.bench) ~variant ~base (rep : Simulate.report) area =
  { key = bench.Suite.name ^ " " ^ variant;
    bench = bench.Suite.name;
    variant;
    cycles = rep.Simulate.cycles;
    dram_cycles = rep.Simulate.dram_cycles;
    reads = rep.Simulate.reads;
    writes = rep.Simulate.writes;
    area;
    base_cycles = base }

let positive x = Float.is_finite x && x > 0.0

(* ------------------------------------------------------------------ *)
(* dse: one candidate tile assignment, compiled at three pars          *)
(* ------------------------------------------------------------------ *)

let dse_pars = [ 4; 16; 64 ]

(* default x {1/4, 1/2, 1, 2, 4} per tiled parameter, clipped to
   [1, simulation size].  Generated here, not by [Dse.explore_bench], so
   a change to the DSE cannot change the workload. *)
let dse_candidates (b : Suite.bench) =
  List.map
    (fun (s, default) ->
      let size = Suite.size_of b.Suite.sim_sizes s in
      ( s,
        List.sort_uniq compare
          (List.map
             (fun t -> Int.max 1 (Int.min size t))
             [ default / 4; default / 2; default; default * 2; default * 4 ]) ))
    b.Suite.tiles

(* the ops of one benchmark, and the reference DSE's points over its grid *)
let dse_bench (b : Suite.bench) =
  let candidates = dse_candidates b in
  let sizes = b.Suite.sim_sizes in
  let base = base_cycles b in
  let res =
    Dse.explore_joint ~domains:1 ~prog:b.Suite.prog ~candidates ~pars:dse_pars ~sizes ()
  in
  let reference = Hashtbl.create 256 in
  List.iter
    (fun (p : Dse.point) ->
      Hashtbl.replace reference (List.map snd p.Dse.tiles, p.Dse.par) (p.Dse.cycles, p.Dse.area))
    res.Dse.points;
  let run tiles () =
    let r = tile ~tiles b.Suite.prog in
    let per_par =
      List.map
        (fun par ->
          let d = lower { Lower.default_opts with Lower.par } r.Tiling.tiled in
          let rep = simulate d ~sizes in
          let a = area d in
          let clean = lint (fun () -> Hw_check.check d) = [] in
          let same =
            Hashtbl.find_opt reference (List.map snd tiles, par) = Some (rep.Simulate.cycles, a)
          in
          let variant = Printf.sprintf "%s par=%d" (tiles_to_string tiles) par in
          (positive rep.Simulate.cycles && clean && same, hw_of ~bench:b ~variant ~base rep a))
        dse_pars
    in
    (List.for_all fst per_par, List.map snd per_par)
  in
  ( List.map
      (fun tiles -> { label = b.Suite.name ^ " " ^ tiles_to_string tiles; run = run tiles })
      (cartesian candidates),
    res.Dse.points )

let dse_ops () =
  let ops, points = List.split (List.map dse_bench (Suite.all ())) in
  let points = List.concat points in
  let feasible = List.filter (fun (p : Dse.point) -> p.Dse.feasible) points in
  ( List.concat ops,
    float_of_int (List.length feasible) /. float_of_int (List.length points) )

(* ------------------------------------------------------------------ *)
(* verify: the [check] pipeline on one tiled design                    *)
(* ------------------------------------------------------------------ *)

let verify_divisors = [ 1; 2; 4 ]

(* Their event-engine runs take 1.2-6.2 s each on a 2-vCPU x86 host
   (about 13 s per round together) and would swamp every other op. *)
let verify_excluded =
  [ ("gemm", [ 32; 32; 32 ]);
    ("gemm", [ 32; 32; 64 ]);
    ("gemm", [ 32; 32; 128 ]);
    ("gemm", [ 32; 64; 32 ]);
    ("gemm", [ 64; 32; 32 ]) ]

let verify_tiles (b : Suite.bench) =
  cartesian
    (List.map
       (fun (s, default) -> (s, List.map (fun k -> Int.max 1 (default / k)) verify_divisors))
       b.Suite.tiles)
  |> List.filter (fun tiles ->
         not (List.mem (b.Suite.name, List.map snd tiles) verify_excluded))

let verify_check (b : Suite.bench) ~inputs ~base tiles =
  let ok = ref true in
  let expect c = if not c then ok := false in
  let prog = b.Suite.prog in
  let sizes = b.Suite.test_sizes and sim_sizes = b.Suite.sim_sizes in
  expect (lint_clean (fun () -> Ppl_lint.check_all prog));
  let r = tile ~tiles prog in
  let stages =
    [ r.Tiling.fused; r.Tiling.stripped; r.Tiling.stripped_with_copies; r.Tiling.tiled ]
  in
  List.iter
    (fun p ->
      expect
        (Span.with_ "lint" (fun () ->
             match Validate.check_program p with
             | _ -> true
             | exception Validate.Type_error _ -> false)))
    stages;
  let reference = eval prog ~sizes ~inputs in
  List.iter (fun p -> expect (Value.equal ~eps:1e-6 reference (eval p ~sizes ~inputs))) stages;
  (* the parser mints fresh symbols: rebind sizes by base name and
     inputs by declaration order, as [check] does *)
  let parsed = roundtrip r.Tiling.tiled in
  let by_base = List.map (fun (s, v) -> (Sym.base s, v)) sizes in
  let sizes' = List.map (fun s -> (s, List.assoc (Sym.base s) by_base)) parsed.Ir.size_params in
  let inputs' =
    List.map2
      (fun (pi : Ir.input) (oi : Ir.input) -> (pi.Ir.iname, List.assoc oi.Ir.iname inputs))
      parsed.Ir.inputs prog.Ir.inputs
  in
  expect (Value.equal ~eps:1e-6 reference (eval parsed ~sizes:sizes' ~inputs:inputs'));
  expect (lint_clean (fun () -> snd (Bounds.audit r.Tiling.tiled)));
  let d = lower Lower.default_opts r.Tiling.tiled in
  expect (lint (fun () -> Hw_check.check d) = []);
  expect (lint_clean (fun () -> Hw_lint.check d));
  expect (lint (fun () -> Ppl_lint.crosscheck ~cache_leftover:true r.Tiling.tiled d) = []);
  let rep = simulate d ~sizes:sim_sizes in
  let e = (event_sim d ~sizes:sim_sizes).Event_sim.report.Simulate.cycles in
  let a = rep.Simulate.cycles in
  expect (positive a && Float.abs (a -. e) /. Float.max a e < 0.02);
  let ar = area d in
  expect (Area_model.fits ar);
  (!ok, [ hw_of ~bench:b ~variant:(tiles_to_string tiles) ~base rep ar ])

let verify_ops ~seed =
  List.concat_map
    (fun (b : Suite.bench) ->
      let inputs = b.Suite.gen ~sizes:b.Suite.test_sizes ~seed in
      let base = base_cycles b in
      List.map
        (fun tiles ->
          { label = b.Suite.name ^ " " ^ tiles_to_string tiles;
            run = (fun () -> verify_check b ~inputs ~base tiles) })
        (verify_tiles b))
    (Suite.extended ())

(* ------------------------------------------------------------------ *)
(* explain: every view of one prebuilt design, plus the what-ifs       *)
(* ------------------------------------------------------------------ *)

let configs =
  [ (Experiments.Baseline, "baseline"); (Experiments.Tiled, "tiled");
    (Experiments.Tiled_meta, "meta") ]

let machines =
  let m = Machine.default in
  [ m;
    { m with Machine.stream_words_per_cycle = m.Machine.stream_words_per_cycle /. 2.0 };
    { m with Machine.tile_latency = m.Machine.tile_latency *. 2.0 } ]

let scaled sizes k =
  List.map (fun (s, v) -> (s, Int.max 1 (int_of_float (float_of_int v *. k)))) sizes

let explain_view (b : Suite.bench) ~variant ~base d =
  let sizes = b.Suite.sim_sizes in
  let cache = Simulate.cache () in
  let rep = Span.with_ "simulate" (fun () -> Simulate.run ~cache d ~sizes) in
  Span.with_ "simulate" (fun () ->
      ignore (Simulate.breakdown ~cache d ~sizes);
      ignore (Simulate.bottlenecks ~cache d ~sizes));
  let p =
    Span.with_ "profile.attrib" (fun () ->
        let p = Profile.of_design ~cache d ~sizes in
        ignore (Profile.top_sinks p 3);
        p)
  in
  note_cache cache;
  let json = Span.with_ "profile.json" (fun () -> Profile.to_json p) in
  Span.count "profile.json_bytes" (float_of_int (String.length json));
  ignore (Span.with_ "profile.folded" (fun () -> Profile.to_folded p));
  let what_ifs =
    List.for_all
      (fun k ->
        List.for_all
          (fun machine -> positive (simulate ~machine d ~sizes:(scaled sizes k)).Simulate.cycles)
          machines)
      [ 0.5; 1.0; 2.0 ]
  in
  let ar = area d in
  ( Profile.total_cycles p = rep.Simulate.cycles && what_ifs,
    [ hw_of ~bench:b ~variant ~base rep ar ] )

let explain_ops () =
  List.concat_map
    (fun (b : Suite.bench) ->
      let designs = List.map (fun (c, v) -> (v, Experiments.design_of c b)) configs in
      let base = cycles_of (List.assoc "baseline" designs) ~sizes:b.Suite.sim_sizes in
      List.map
        (fun (variant, d) ->
          { label = b.Suite.name ^ " " ^ variant;
            run = (fun () -> explain_view b ~variant ~base d) })
        designs)
    (Suite.extended ())

let setup name ~seed =
  let ops, dse_feasible_frac =
    match name with
    | "dse" -> dse_ops ()
    | "verify" -> (verify_ops ~seed, 0.0)
    | "explain" -> (explain_ops (), 0.0)
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  { name; ops; dse_feasible_frac }

(* The paper's reported +tiling+metapipelining speedups, for the model's
   own on the six paper benchmarks.  Nothing else validates the model. *)
let paper_speedup_ratios (hws : hw list) =
  List.filter_map
    (fun h ->
      match List.assoc_opt h.bench Experiments.paper_fig7_speedups with
      | Some (_, meta) when h.variant = "meta" -> Some (h.base_cycles /. h.cycles /. meta)
      | _ -> None)
    hws
