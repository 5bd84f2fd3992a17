(** Hierarchical cycle simulator for hardware designs.

    Every controller is reduced to (cycles, DRAM-busy cycles, per-array
    traffic), composing upward:
    - a pipe runs [fill + ceil(iterations / par)] compute cycles and
      overlaps its own streaming, so it costs the max of compute and its
      direct-DRAM time;
    - tile load/store units cost one request latency plus the streamed
      words at stream bandwidth;
    - [Seq] sums children, [Par] takes their max but sums their DRAM time
      (the memory system serializes);
    - a sequential [Loop] multiplies the per-iteration sum by its trip
      count; a metapipelined [Loop] pays one fill (the sum) and then a
      steady-state bottleneck per iteration — the slowest stage, but no
      less than the sum of the memory stages, which all share DRAM.

    Direct accesses follow the burst-reuse rule: walking the loop path
    outermost-in, an address-dependent loop multiplies traffic; an
    address-independent loop multiplies only when the footprint beneath it
    exceeds the stream cache.  Non-contiguous accesses amortize each burst
    over only [par] useful words; contiguous ones over a full burst.

    One recursive pass builds an annotated {!node} tree per (design,
    machine, sizes); every view is a projection of it: {!run} reads the
    root, {!breakdown} flattens it pre-order, {!bottlenecks} filters its
    metapipelines, and the attribution profiler walks it reading the
    composition terms each node records.  No view re-derives a rule.

    Fig. 5c's "minimum words read from main memory" is the [reads] side of
    the traffic report; Fig. 7's speedups are ratios of [cycles]. *)

type traffic = (string * float) list  (** array name -> words *)

type report = {
  cycles : float;
  dram_cycles : float;  (** cycles during which DRAM is busy *)
  reads : traffic;  (** words read per DRAM array *)
  writes : traffic;  (** words written per DRAM array *)
}

(** {1 The annotated tree} *)

module Smap : Map.S with type key = string

(** The terms a node's composition used, beyond its totals. *)
type terms =
  | Plain  (** [Seq], [Par], a sequential [Loop] *)
  | Transfer  (** tile load/store: every cycle is DRAM-busy *)
  | Pipe_terms of {
      compute : float;  (** [depth + ceil(iterations / par) * ii] *)
      depth : float;  (** the fill, paid once per invocation *)
    }
  | Meta of {
      per_iter : float;  (** sum of the stages' cycles: the one fill *)
      slowest : int;  (** index of the first slowest stage *)
      dram_sum : float;  (** sum of the stages' DRAM-busy cycles *)
      steady : float;
          (** per-iteration steady state: the slowest stage, but no
              less than [dram_sum] *)
    }  (** a metapipelined [Loop] with more than one stage *)

type node = {
  n_ctrl : Hw.ctrl;
  n_cycles : float;  (** per-invocation cycles of the subtree *)
  n_dram : float;  (** per-invocation DRAM-busy cycles *)
  n_reads : float Smap.t;  (** per-invocation words read, per DRAM array *)
  n_writes : float Smap.t;
  n_trips : float;
      (** child invocations per invocation: a [Loop]'s trip count (at
          least 1), else 1 *)
  n_terms : terms;
  n_children : node list;  (** in [Hw.children] order *)
}

type cache
(** A single slot holding the last tree built through it, keyed by the
    design's top controller (physical identity), the machine and the
    sizes.  Views sharing a cache build the tree once; a cache reused
    with another design, machine or sizes builds a fresh tree, so it
    can never return a stale result.  Cached views return exactly what
    uncached ones return. *)

val cache : unit -> cache

type cache_stats = { hits : int; misses : int }
(** Lifetime totals for a cache: [misses] counts trees built, [hits]
    counts views served from the held tree. *)

val cache_stats : cache -> cache_stats

val tree :
  ?machine:Machine.t ->
  ?cache:cache ->
  Hw.design ->
  sizes:(Sym.t * int) list ->
  node
(** The design's annotated tree (default machine: {!Machine.default}). *)

val run :
  ?machine:Machine.t ->
  ?cache:cache ->
  Hw.design ->
  sizes:(Sym.t * int) list ->
  report

(** {1 Cost primitives}

    Shared with the event-driven engine ({!Event_sim}). *)

val direct_words :
  Machine.t -> (Sym.t * int) list -> Hw.dram_access -> float
(** Words actually fetched by a direct access, after the burst-locality
    reuse rule over its loop path. *)

val direct_cycles :
  Machine.t -> (Sym.t * int) list -> int -> float -> Hw.dram_access -> float
(** [direct_cycles m sizes par words da]: DRAM-busy cycles for a direct
    access that moves [words], under the request-cost model. *)

val cached_footprint :
  Machine.t -> (Sym.t * int) list -> Hw.dram_access -> float
(** Compulsory words for a cache-served access (dependent extents only). *)

(** {1 Breakdown} *)

type breakdown_row = {
  br_name : string;
  br_depth : int;  (** nesting depth in the controller tree *)
  br_kind : string;  (** "metapipeline", "pipe", "tile-load", ... *)
  br_cycles : float;  (** per-invocation cycles of this controller *)
  br_invocations : float;  (** times it runs, given enclosing trips *)
}

val kind_of : Hw.ctrl -> string
(** Display kind of a controller ("metapipeline", "pipe/vector", ...). *)

val breakdown :
  ?machine:Machine.t ->
  ?cache:cache ->
  Hw.design ->
  sizes:(Sym.t * int) list ->
  breakdown_row list
(** Per-controller timing table, pre-order.  [br_cycles *.
    br_invocations] is each controller's total contribution (overlap in
    metapipelines means children can sum to more than the parent). *)

val pp_breakdown : Format.formatter -> breakdown_row list -> unit

(** {1 Bottlenecks}

    The analysis behind the paper's gda rebalancing (§6.2): for every
    metapipeline, which stage limits the steady state, and whether the
    limit is that stage's compute or the shared DRAM channel. *)

type bottleneck_row = {
  bn_loop : string;  (** metapipelined loop name *)
  bn_iters : float;  (** iterations at the given sizes *)
  bn_stage : string;  (** slowest stage *)
  bn_stage_cycles : float;  (** its per-iteration cycles *)
  bn_dram_sum : float;  (** sum of all stages' DRAM-busy cycles *)
  bn_bound : [ `Stage | `Dram ];  (** what sets the steady state *)
  bn_frac : float;  (** slowest-stage share of the steady state *)
}

val bottlenecks :
  ?machine:Machine.t ->
  ?cache:cache ->
  Hw.design ->
  sizes:(Sym.t * int) list ->
  bottleneck_row list

val pp_bottlenecks : Format.formatter -> bottleneck_row list -> unit

val read_words : report -> string -> float
(** Words read from the named array (0 if absent). *)

val written_words : report -> string -> float
val total_read : report -> float
val total_written : report -> float
val pp_report : Format.formatter -> report -> unit
