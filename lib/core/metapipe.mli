(** Metapipeline finalization (Section 5).

    After lowering, every output buffer that couples two stages of a
    metapipeline is promoted to a double buffer — required to avoid
    write-after-read hazards between stages executing different outer
    iterations concurrently.  Buffers written and read by stages of
    non-metapipelined (sequential) loops stay single-buffered, as do
    preloaded top-level buffers (Fig. 6: the points tile is double
    buffered, the centroids preload is not).

    Also fills in each memory's reader/writer port counts from the
    finished controller tree, one port per access.

    Both derive from the access rule {!Hw.mem_reads}/{!Hw.mem_writes}
    (a stage's sets are {!Hw.subtree_reads}/{!Hw.subtree_writes}).
    {!Hw_lint}'s HW101 and HW111 re-derive the coupling set and the port
    counts from that same rule in their own loops, without calling this
    module, so a bug in either aggregation shows as a lint finding. *)

val finalize : Hw.design -> Hw.design
(** A new design: memories are rebuilt with their promoted kind and
    port counts; the input design is left unchanged. *)
