(** The workspace language service: editor-grade incremental checking
    over open documents.

    A {!t} owns a set of {e open documents} — named, versioned program
    texts an editor is mutating — and keeps each one continuously
    checked.  Opening or changing a document runs the full recovering
    pipeline ({!Fg_core.Session.run_indexed}) through a compilation-unit
    cache shared by every document, so an edit re-checks the edited
    declaration and every declaration after it; the declarations before
    it replay from cache.  Rendered diagnostics are
    byte-identical to a one-shot [fgc run --format=json] of the same
    text, because both go through
    {!Fg_core.Jsonview.json_of_run_report}.

    Alongside diagnostics the service maintains a {b position index}:
    the inferred type of every expression and every resolved model,
    recorded during checking (via {!Fg_core.Check.with_index_sink}) and
    stored sorted by span for O(log n) offset lookups.  Each
    compilation unit carries the entries its check recorded, so a
    replayed declaration contributes them without re-checking, at the
    offsets a cold check would record.  {!hover}, {!definition} and
    {!completion} answer from this index and from a scope-threading
    walk of the document's AST.

    Every operation is serialized by one internal mutex (document
    updates are cheap next to checking) and records its latency into a
    per-operation histogram, reported by {!stats_json} under the
    server's [stats] payload. *)

open Fg_util

type t

(** [create ()] — an empty workspace.  [fuel] bounds both evaluators of
    every document check (as the daemon's [--fuel] does), so a
    divergent open document reports FG0601 instead of pinning the
    service. *)
val create : ?fuel:int -> unit -> t

(** A service-level failure: [ws_code] is FG0807 (unknown document) or
    FG0808 (stale document version); the payload shape on the wire is
    the standard diagnostics envelope. *)
type ws_error = { ws_code : string; ws_msg : string }

(** A byte-range splice: replace [e_len] bytes at byte offset
    [e_start] with [e_text].  Offsets address the document text {e
    before} any edit of the same change applies; edits are applied in
    list order. *)
type edit = { e_start : int; e_len : int; e_text : string }

(** How a [doc_change] supplies the new text. *)
type change = Full_text of string | Edits of edit list

(** [open_doc t ~name ~version ~prelude ~global_models ~backend text]
    opens (or re-opens, at any version) a document and checks it.
    Returns the rendered diagnostics payload — exactly what
    {!diagnostics} would return. *)
val open_doc :
  t ->
  name:string ->
  version:int ->
  prelude:bool ->
  global_models:bool ->
  backend:Fg_core.Backend.t ->
  string ->
  (string, ws_error) result

(** [change_doc t ~name ~version change] — a new version of an open
    document.  Fails with FG0807 when [name] is not open and FG0808
    unless [version] is strictly greater than the document's current
    version (editors must send monotonically increasing versions).
    Re-checks immediately and returns the new diagnostics payload. *)
val change_doc :
  t -> name:string -> version:int -> change -> (string, ws_error) result

val close_doc : t -> name:string -> (string, ws_error) result

(** The document's current diagnostics (computed at the last
    open/change; no re-check happens here). *)
val diagnostics : t -> name:string -> (string, ws_error) result

(** The inferred type (and resolved model, when the offset sits in a
    constrained call or member access) at a byte offset: the
    smallest-span index entry containing the offset wins; among equal
    spans the last-recorded (outermost in checking order) wins. *)
val hover : t -> name:string -> offset:int -> (string, ws_error) result

(** The defining occurrence of the name under the offset: let/fn/fix
    binders, concept declarations (for members and concept names),
    named models (for [using]), resolved within this document. *)
val definition :
  t -> name:string -> offset:int -> (string, ws_error) result

(** Names completable at the offset — declaration-spine bindings,
    lambda/fix parameters in scope, concepts and their members, named
    models, type aliases — filtered by the identifier prefix ending at
    the offset. *)
val completion :
  t -> name:string -> offset:int -> (string, ws_error) result

(** The [{"docs", "open", "change", "close", "diagnostics", "hover",
    "definition", "completion"}] stats object: document count plus one
    latency histogram ({!Fg_util.Telemetry.Histogram.to_json}) per
    operation. *)
val stats_json : t -> Json.t

(** Unit-cache counters of the workspace's shared compilation-unit
    cache (what an edit's re-check cost is measured in). *)
val cache_stats : t -> Fg_core.Unit.stats
