(** Message-level distributed primitives.

    Every function here executes a genuine synchronous message-passing
    protocol through {!Network.run_counted} and charges the executed round
    and message counts to the given ledger.  These are the building blocks
    the paper's algorithms are assembled from: BFS-tree construction,
    single-value waves up and down a forest, pipelined dissemination along
    root paths, and pipelined sorted keyed aggregation (upcast) — the
    workhorse behind "the root learns the optimal edge per segment / per
    fragment in O(D + √n) rounds" steps.

    Payloads are [int array]s of at most {!Network.cap_words} words. Each
    primitive's program reads its mail in place through {!Network.Mail}
    and posts through the step's outbox, so the engine allocates nothing
    per message; the arrays and lists in these signatures are built only
    where a caller hands them in or gets them back ([wave_up] and
    [wave_down] copy the values they pass to [value] and [derive], and
    [down_pipeline ~record:true] copies what it records).

    Every program here posts by port ({!Network.post_port}): the tree
    primitives through the parent and child ports their {!Forest.t}
    computed once, [bfs_tree] and [edge_stream] along each vertex's own
    adjacency row. Children are posted to in ascending vertex order.

    A vertex that is blocked on mail returns [`Wait], so the engine steps
    it only when mail comes ({!Network.program}): in [bfs_tree] until it
    joins, in [wave_up] while children are pending, in [wave_down] until
    it has its value, and in [up_pipeline_merge] while it is not ready
    (a root also while it is not drained). [down_pipeline], [edge_stream]
    and [walk_up] return [`Active] only when they send in the next pass.

    There is one exchange program, {!exchange_in_place}: its callers
    post through the outbox and read their mail in place. {!exchange}
    posts [send list]s that name their links by edge id, for the
    benchmark's per-primitive probe; no library module calls it. *)

open Kecss_graph

exception Bfs_unreached of { vertex : int }
(** Raised by {!bfs_tree} when the flood quiesced without reaching
    [vertex], the smallest such id — which only a fault causes: a
    crash-stopped vertex never passes the join token on. *)

val bfs_tree : Rounds.t -> Graph.t -> root:int -> Rooted_tree.t
(** Builds a BFS spanning tree by flooding; ecc(root) rounds. Ties between
    simultaneous joins break towards the smallest edge id, so the result is
    deterministic. Raises [Invalid_argument] on a disconnected graph,
    before any engine pass and without charging a round, and
    {!Bfs_unreached} when faults keep the flood from some vertex. *)

val exchange_in_place :
  ?read:(int -> Network.mail -> unit) ->
  Rounds.t ->
  Graph.t ->
  post:(int -> Network.outbox -> unit) ->
  unit
(** [exchange_in_place ledger g ~post ~read] performs one communication
    round: in round 0 every vertex [v] posts its sends with [post v out];
    in every later pass that brings [v] mail, [read v mail] reads it in
    place (once without faults; delayed or replicated copies may come in
    later passes, each pass's mail in its own call). Without [read] the
    mail is delivered and charged but not read. 1 round. *)

val exchange : Rounds.t -> Graph.t -> (int -> Network.send list) -> unit
(** [exchange ledger g sends] is {!exchange_in_place} with each vertex
    [v] posting [sends v] in list order, each on the port of its edge,
    found by binary search in [v]'s adjacency row; the mail is delivered
    and charged but not read. A lookup allocates nothing.
    @raise Invalid_argument
      ["Prim.exchange: edge E is not incident to vertex V"] at the post
      of a send whose edge [v] does not touch. *)

val wave_up :
  Rounds.t ->
  Forest.t ->
  value:(int -> int array list -> int array) ->
  int array array
(** Convergecast: [value v child_values] computes [v]'s value from its
    children's (leaves get [[]]); each vertex sends its value to its
    parent. Returns all values (the roots' entries are the aggregates).
    Rounds = max tree height. *)

val wave_down :
  Rounds.t ->
  Forest.t ->
  root_value:(int -> int array) ->
  derive:(int -> parent_value:int array -> int array) ->
  int array array
(** Broadcast wave: each root [r] takes value [root_value r]; every other
    vertex derives its value from its parent's. Rounds = max depth. *)

val down_pipeline :
  ?record:bool ->
  Rounds.t -> Forest.t -> emit:(int -> int array list) -> (int * int array) list array
(** Pipelined root-path dissemination: every vertex receives, as
    [(origin, payload)] pairs ordered nearest-ancestor-first, the emissions
    of all its strict ancestors. Rounds ≤ max over v of
    (depth v + Σ emissions above v); payloads of ≤ cap−1 words.
    [~record:false] runs the identical protocol (same rounds, same
    messages) but skips materialising the per-vertex received lists —
    for call sites that only charge the communication. *)

val broadcast_list :
  ?record:bool ->
  Rounds.t -> Forest.t -> items:(int -> int array list) -> (int * int array) list array
(** Roots disseminate their item lists to their whole trees (pipelined).
    Returns per-vertex received [(origin_root, payload)] lists; each root
    also "receives" its own list, so every vertex of a tree ends with the
    same data. Rounds ≤ max depth + max #items. [~record:false] as in
    {!down_pipeline} (the returned lists are then empty). *)

val edge_stream : Rounds.t -> Graph.t -> lengths:(int -> int) -> unit
(** [edge_stream ledger g ~lengths] has both endpoints of every edge [e]
    with [lengths e > 0] stream that many one-word messages to each other,
    one per round — the "exchange the root paths over the edge" pattern of
    §5.3 (and of TAP's case analysis). Rounds = max positive length.
    [lengths] is called once per edge end, before the first round, into
    an array laid out like the adjacency rows, which each vertex then
    reads in order. *)

val walk_up : Rounds.t -> Forest.t -> sources:int list -> unit
(** A token travels from each source vertex to its tree's root along parent
    pointers (several tokens in parallel, at most one hop per round per
    edge). Models the report/re-rooting walks of fragment merging; rounds =
    max source depth (+ queueing if sources share a path). *)

val up_pipeline_merge :
  Rounds.t ->
  Forest.t ->
  emit:(int -> (int * int array) list) ->
  combine:(int array -> int array -> int array) ->
  (int * int array) list array
(** Pipelined sorted keyed aggregation. [emit v] lists [(key, payload)]
    entries sorted by strictly increasing key; entries flow upward, streams
    are merged in key order, and payloads with equal keys are fused with
    [combine] (associative/commutative). Returns, {e at each root}, the
    fully merged sorted entry list of its tree (inner vertices' slots hold
    [[]]). Rounds ≤ max height + total distinct keys per tree (+O(1));
    payloads of ≤ cap−2 words. *)
