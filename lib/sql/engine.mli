(** Planner and executor: SQL over the encrypted database.

    The cost-model planner ({!Planner}) enumerates every access path the
    database can serve for a SELECT — full decrypt-scan, exact encrypted
    B⁺-tree probes, bucketized range scans, and for joins both nesting
    orders crossed with both loop strategies — prices each with {!Cost}
    and executes the cheapest.  Every candidate hands its rows
    over in ascending row order and shares one filter / ORDER BY / LIMIT
    / projection tail, so all plans of a query are byte-identical — the
    plan choice costs latency, never correctness (the perf bench's
    [--check] gate asserts exactly that).

    Candidates are lazy {!Secdb_query.Encrypted_table.row}s: the tail
    decrypts and authenticates a protected cell the first time it reads
    it, and never decrypts a cell the statement does not read.  A cell
    that fails authentication makes the statement return
    [Error "cell (t,r,c): reason"], whichever plan read it.

    [EXPLAIN SELECT …] returns the chosen plan as text with its estimated
    cost, which the tests pin down (queries must not silently degrade to
    scans). *)

type outcome =
  | Rows of { columns : string list; rows : Secdb_db.Value.t list list }
  | Affected of int  (** rows inserted / updated / deleted *)
  | Created  (** table or index *)
  | Plan of string  (** EXPLAIN output *)

val plan_of_select : Secdb.Encdb.t -> Ast.select -> Plan.t
(** The plan {!exec_stmt} would execute — head of {!candidate_plans}.
    @raise Failure on unknown tables or unresolvable column references
    (callers inside {!exec_stmt} get the structured error). *)

val candidate_plans : Secdb.Encdb.t -> Ast.select -> Plan.t list
(** Every executable plan for the query, cheapest first under
    {!Plan.compare}'s deterministic tie-break; never empty.  Each element
    can be handed to {!exec_plan} and must return the same bytes. *)

val exec_stmt : Secdb.Encdb.t -> Ast.stmt -> (outcome, string) result
(** Execute one parsed statement.  Exact-index probes walk the tree
    under {!Secdb_query.Walker.Corrected}. *)

val exec_plan : Secdb.Encdb.t -> Ast.select -> Plan.t -> (outcome, string) result
(** Execute a SELECT under a caller-chosen plan instead of the planner's
    pick — the bench and the oracle tests force every candidate and
    compare bytes. *)

val exec_snapshot : Snapshot.t -> Ast.stmt -> (outcome, string) result option
(** Answer a point lookup — [SELECT … WHERE col = literal] — or a range
    select — [SELECT … WHERE col BETWEEN lit AND lit] — from an immutable
    {!Snapshot.t} instead of the live database: the sharded server's
    lock-free read path.  The candidate set and the shared
    filter/order/limit/projection tail reproduce {!exec_stmt}'s result
    byte for byte on uncorrupted data.  [None] when the statement is not
    of those shapes — JOINs and qualified [table.column] references
    included — or the snapshot has never seen the table: the caller must
    fall back to the locked executor.  The refusal is structured ([None],
    never an exception). *)

val exec : Secdb.Encdb.t -> string -> (outcome, string) result
(** Parse and execute one statement. *)

val exec_script : Secdb.Encdb.t -> string -> ((Ast.stmt * outcome) list, string) result
(** Execute a [;]-separated script, stopping at the first error. *)

val pp_result : Format.formatter -> outcome -> unit
(** Render rows as an aligned table, mutations as a count. *)
