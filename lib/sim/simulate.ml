type traffic = (string * float) list

type report = {
  cycles : float;
  dram_cycles : float;
  reads : traffic;
  writes : traffic;
}

(* Traffic accumulates into a map keyed by array name: the assoc-list
   version walked the whole list per arrival (O(n^2) across a sweep).
   Per-key sums add in the same left-to-right order as before, so the
   floats are unchanged. *)
module Smap = Map.Make (String)

let add_words t arr words =
  Smap.update arr
    (function None -> Some words | Some w -> Some (w +. words))
    t

let merge_traffic a b = Smap.union (fun _ x y -> Some (x +. y)) a b
let scale_traffic f t = Smap.map (fun w -> f *. w) t

(* Direct-access traffic: outermost-in, dependent loops multiply; an
   independent loop multiplies only when the footprint beneath it exceeds
   the stream cache. *)
let direct_words (m : Machine.t) sizes (da : Hw.dram_access) =
  let rec go = function
    | [] -> 1.0
    | (trip, dep) :: rest ->
        let inner = go rest in
        let t = Hw.trip_eval sizes trip in
        if dep then t *. inner
        else if
          inner *. float_of_int m.Machine.word_bytes
          > float_of_int m.Machine.stream_cache_bytes
        then t *. inner
        else inner
  in
  go da.Hw.da_path

let direct_cycles (m : Machine.t) sizes par words (da : Hw.dram_access) =
  let transfer = words /. m.Machine.stream_words_per_cycle in
  let group = float_of_int (Int.max 1 par) in
  let requests =
    if not da.Hw.da_affine then
      (* data-dependent: one request per vector group of *iterations* —
         the address changes unpredictably every cycle *)
      let iters =
        List.fold_left
          (fun acc (t, _) -> acc *. Hw.trip_eval sizes t)
          1.0 da.Hw.da_path
      in
      iters /. group *. m.Machine.nonaffine_access_cost
    else if not da.Hw.da_contiguous then
      words /. group *. m.Machine.noncontig_group_cost
    else
      let row = Float.max 1.0 (Hw.trip_eval sizes da.Hw.da_row_words) in
      if row >= float_of_int m.Machine.burst_words then
        (* long sequential run: prefetch-friendly *)
        words /. float_of_int m.Machine.burst_words *. m.Machine.long_burst_cost
      else words /. row *. m.Machine.short_row_cost
  in
  Float.max transfer requests

(* compulsory words for a cache-served access: a cache captures the reuse,
   so only the dependent extents are fetched *)
let cached_footprint (_m : Machine.t) sizes (da : Hw.dram_access) =
  let rec go = function
    | [] -> 1.0
    | (trip, dep) :: rest ->
        let inner = go rest in
        if dep then Hw.trip_eval sizes trip *. inner else inner
  in
  go da.Hw.da_path

(* ------------------------- the annotated tree ---------------------- *)

type terms =
  | Plain
  | Transfer
  | Pipe_terms of { compute : float; depth : float }
  | Meta of { per_iter : float; slowest : int; dram_sum : float; steady : float }

type node = {
  n_ctrl : Hw.ctrl;
  n_cycles : float;
  n_dram : float;
  n_reads : float Smap.t;
  n_writes : float Smap.t;
  n_trips : float;
  n_terms : terms;
  n_children : node list;
}

let trip_product sizes trips =
  List.fold_left (fun acc t -> acc *. Hw.trip_eval sizes t) 1.0 trips

(* in-order sums over a controller's children: cycles, DRAM-busy cycles
   and traffic *)
let totals kids =
  List.fold_left
    (fun (cyc, dram, reads, writes) k ->
      ( cyc +. k.n_cycles,
        dram +. k.n_dram,
        merge_traffic reads k.n_reads,
        merge_traffic writes k.n_writes ))
    (0.0, 0.0, Smap.empty, Smap.empty)
    kids

(* index of the first slowest child *)
let slowest_index kids =
  let rec go i best besti = function
    | [] -> besti
    | k :: rest ->
        if k.n_cycles > best then go (i + 1) k.n_cycles i rest
        else go (i + 1) best besti rest
  in
  match kids with [] -> 0 | k :: rest -> go 1 k.n_cycles 0 rest

let node c ?(trips = 1.0) ?(children = []) ~cycles ~dram ~reads ~writes terms =
  { n_ctrl = c; n_cycles = cycles; n_dram = dram; n_reads = reads;
    n_writes = writes; n_trips = trips; n_terms = terms; n_children = children }

(* tile load/store units: one request latency plus the streamed words,
   all of it DRAM-busy *)
let transfer (m : Machine.t) c words ~reads ~writes =
  let cyc = m.Machine.tile_latency +. (words /. m.Machine.stream_words_per_cycle) in
  node c ~cycles:cyc ~dram:cyc ~reads ~writes Transfer

let rec build (m : Machine.t) sizes (c : Hw.ctrl) : node =
  match c with
  | Hw.Seq { children; _ } ->
      let kids = List.map (build m sizes) children in
      let cycles, dram, reads, writes = totals kids in
      node c ~children:kids ~cycles ~dram ~reads ~writes Plain
  | Hw.Par { children; _ } ->
      let kids = List.map (build m sizes) children in
      let _, dram, reads, writes = totals kids in
      let cycles =
        Float.max
          (List.fold_left (fun acc k -> Float.max acc k.n_cycles) 0.0 kids)
          dram
      in
      node c ~children:kids ~cycles ~dram ~reads ~writes Plain
  | Hw.Loop { trips; meta; stages; _ } ->
      let kids = List.map (build m sizes) stages in
      let iter = Float.max (trip_product sizes trips) 1.0 in
      let per_iter, dram_sum, reads, writes = totals kids in
      let cycles, terms =
        if meta && List.length kids > 1 then begin
          (* fill once, then the steady-state bottleneck per iteration:
             the slowest stage, but at least the DRAM serialization *)
          let slowest = slowest_index kids in
          let steady =
            Float.max (List.nth kids slowest).n_cycles dram_sum
          in
          ( per_iter +. ((iter -. 1.0) *. steady),
            Meta { per_iter; slowest; dram_sum; steady } )
        end
        else (iter *. per_iter, Plain)
      in
      node c ~trips:iter ~children:kids ~cycles ~dram:(iter *. dram_sum)
        ~reads:(scale_traffic iter reads) ~writes:(scale_traffic iter writes)
        terms
  | Hw.Pipe { trips; par; depth; ii; dram; _ } ->
      let iters = trip_product sizes trips in
      let depth = float_of_int depth in
      let compute =
        depth +. (ceil (iters /. float_of_int (Int.max 1 par)) *. float_of_int ii)
      in
      let busy, reads, writes =
        List.fold_left
          (fun (busy, reads, writes) da ->
            let words = direct_words m sizes da in
            let cyc = direct_cycles m sizes par words da in
            let arr = da.Hw.da_array in
            match da.Hw.da_kind with
            | `Read -> (busy +. cyc, add_words reads arr words, writes)
            | `Cached ->
                (* the cache fetches only the compulsory footprint;
                   [busy +. cyc -. cyc] is kept unsimplified so the
                   float sums stay bit-identical to recorded results *)
                let fp = Float.min (cached_footprint m sizes da) words in
                ( busy +. cyc -. cyc +. (fp /. m.Machine.stream_words_per_cycle),
                  add_words reads arr fp,
                  writes )
            | `Write -> (busy +. cyc, reads, add_words writes arr words))
          (0.0, Smap.empty, Smap.empty)
          dram
      in
      node c ~cycles:(Float.max compute busy) ~dram:busy ~reads ~writes
        (Pipe_terms { compute; depth })
  | Hw.Tile_load { words; reuse; array; _ } ->
      let w = Hw.trip_eval sizes words /. float_of_int (Int.max 1 reuse) in
      transfer m c w ~reads:(Smap.singleton array w) ~writes:Smap.empty
  | Hw.Tile_store { words; array; _ } ->
      let w = Hw.trip_eval sizes words in
      transfer m c w ~reads:Smap.empty ~writes:(Smap.singleton array w)

(* ------------------------- the tree slot --------------------------- *)

type cache = {
  mutable held : (Hw.ctrl * Machine.t * (Sym.t * int) list * node) option;
  mutable hits : int;  (** views served from the held tree *)
  mutable misses : int;  (** trees built *)
}

type cache_stats = { hits : int; misses : int }

let cache () = { held = None; hits = 0; misses = 0 }
let cache_stats (c : cache) = { hits = c.hits; misses = c.misses }

let tree ?(machine = Machine.default) ?cache (d : Hw.design) ~sizes =
  match cache with
  | None -> build machine sizes d.Hw.top
  | Some c -> (
      match c.held with
      | Some (top, m, s, t)
        when top == d.Hw.top
             && (m == machine || m = machine)
             && (s == sizes || s = sizes) ->
          c.hits <- c.hits + 1;
          t
      | _ ->
          c.misses <- c.misses + 1;
          let t = build machine sizes d.Hw.top in
          c.held <- Some (d.Hw.top, machine, sizes, t);
          t)

let run ?machine ?cache d ~sizes =
  let t = tree ?machine ?cache d ~sizes in
  { cycles = t.n_cycles;
    dram_cycles = t.n_dram;
    reads = Smap.bindings t.n_reads;
    writes = Smap.bindings t.n_writes }

(* ------------------------- breakdown ------------------------------- *)

type breakdown_row = {
  br_name : string;
  br_depth : int;
  br_kind : string;
  br_cycles : float;
  br_invocations : float;
}

let kind_of = function
  | Hw.Seq _ -> "sequential"
  | Hw.Par _ -> "parallel"
  | Hw.Loop { meta = true; _ } -> "metapipeline"
  | Hw.Loop _ -> "loop"
  | Hw.Pipe { template; _ } -> (
      match template with
      | Hw.Vector -> "pipe/vector"
      | Hw.Tree -> "pipe/tree"
      | Hw.Fifo_write -> "pipe/fifo"
      | Hw.Cam_update -> "pipe/cam"
      | Hw.Scalar_unit -> "pipe/scalar")
  | Hw.Tile_load _ -> "tile-load"
  | Hw.Tile_store _ -> "tile-store"

let breakdown ?machine ?cache d ~sizes =
  let rec go depth invocations rows n =
    let row =
      { br_name = Hw.ctrl_name n.n_ctrl;
        br_depth = depth;
        br_kind = kind_of n.n_ctrl;
        br_cycles = n.n_cycles;
        br_invocations = invocations }
    in
    List.fold_left
      (go (depth + 1) (invocations *. n.n_trips))
      (row :: rows) n.n_children
  in
  List.rev (go 0 1.0 [] (tree ?machine ?cache d ~sizes))

let pp_breakdown fmt rows =
  Format.fprintf fmt "%-34s %-14s %14s %12s@." "controller" "kind"
    "cycles/invoc" "invocations";
  List.iter
    (fun r ->
      Format.fprintf fmt "%s%-*s %-14s %14.0f %12.0f@."
        (String.make (2 * r.br_depth) ' ')
        (34 - (2 * r.br_depth))
        r.br_name r.br_kind r.br_cycles r.br_invocations)
    rows

(* ------------------------- bottlenecks ----------------------------- *)

type bottleneck_row = {
  bn_loop : string;
  bn_iters : float;
  bn_stage : string;
  bn_stage_cycles : float;
  bn_dram_sum : float;
  bn_bound : [ `Stage | `Dram ];
  bn_frac : float;
}

let bottlenecks ?machine ?cache d ~sizes =
  let rec go rows n =
    let rows =
      match n.n_terms with
      | Meta { slowest; dram_sum; steady; _ } ->
          let s = List.nth n.n_children slowest in
          { bn_loop = Hw.ctrl_name n.n_ctrl;
            bn_iters = n.n_trips;
            bn_stage = Hw.ctrl_name s.n_ctrl;
            bn_stage_cycles = s.n_cycles;
            bn_dram_sum = dram_sum;
            bn_bound = (if s.n_cycles >= dram_sum then `Stage else `Dram);
            bn_frac = (if steady > 0.0 then s.n_cycles /. steady else 1.0) }
          :: rows
      | Plain | Transfer | Pipe_terms _ -> rows
    in
    List.fold_left go rows n.n_children
  in
  List.rev (go [] (tree ?machine ?cache d ~sizes))

let pp_bottlenecks fmt rows =
  Format.fprintf fmt "%-22s %10s  %-28s %12s %12s  %s@." "metapipeline" "iters"
    "slowest stage" "stage cyc" "dram sum" "steady-state bound";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-22s %10.0f  %-28s %12.0f %12.0f  %s@." r.bn_loop
        r.bn_iters r.bn_stage r.bn_stage_cycles r.bn_dram_sum
        (match r.bn_bound with
        | `Stage ->
            Printf.sprintf "compute (stage is %.0f%% of steady state)"
              (100.0 *. r.bn_frac)
        | `Dram -> "DRAM serialization"))
    rows

let read_words r arr =
  match List.assoc_opt arr r.reads with Some w -> w | None -> 0.0

let written_words r arr =
  match List.assoc_opt arr r.writes with Some w -> w | None -> 0.0

let total_read r = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 r.reads
let total_written r = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 r.writes

let pp_report fmt r =
  Format.fprintf fmt "cycles: %.0f (dram-busy %.0f)@." r.cycles r.dram_cycles;
  List.iter
    (fun (a, w) -> Format.fprintf fmt "  read  %-16s %12.0f words@." a w)
    r.reads;
  List.iter
    (fun (a, w) -> Format.fprintf fmt "  write %-16s %12.0f words@." a w)
    r.writes
