(** The unified diagnostic model.

    Every finding of the toolchain — lexer/parser errors, lint issues,
    schema-build and consistency diagnostics, validation violations,
    satisfiability verdicts, schema-diff changes, Angles baseline
    violations — converts into this one type, carrying a {e stable code}
    from {!Registry}, a severity, an optional source {!span}, an optional
    subject (the graph element or schema construct concerned), and a
    message.  Two renderers consume it: {!pp_text} reproduces the legacy
    per-producer text formats byte-for-byte, and {!to_json} /
    {!envelope} produce the machine-readable form behind the CLI's
    [--format json]. *)

type pos = {
  line : int;  (** 1-based *)
  column : int;  (** 1-based, in bytes *)
  offset : int;  (** 0-based byte offset *)
}

type span = { span_start : pos; span_end : pos }

type severity = Error | Warning | Info

type t = {
  code : string;  (** a stable code of {!Registry} *)
  severity : severity;
  span : span option;  (** source location, when one exists *)
  subject : string option;  (** e.g. ["node n3"], ["type User"] *)
  message : string;
  related : (span option * string) list;  (** secondary notes *)
}

val start_pos : pos
(** Line 1, column 1, offset 0. *)

val dummy_span : span
(** A span for synthesized nodes. *)

val span : pos -> pos -> span

val make :
  code:string ->
  severity:severity ->
  ?span:span ->
  ?subject:string ->
  ?related:(span option * string) list ->
  string ->
  t

val error :
  code:string -> ?span:span -> ?subject:string -> ?related:(span option * string) list -> string -> t

val warning :
  code:string -> ?span:span -> ?subject:string -> ?related:(span option * string) list -> string -> t

val info :
  code:string -> ?span:span -> ?subject:string -> ?related:(span option * string) list -> string -> t

val severity_to_string : severity -> string
(** ["error"], ["warning"], ["info"]. *)

val compare : t -> t -> int
(** Source order (spanless first), then code, subject, message, severity. *)

val normalize : t list -> t list
(** Sort by {!compare} and drop exact duplicates. *)

val pp_pos : Format.formatter -> pos -> unit
val pp_span : Format.formatter -> span -> unit

val pp_text : Format.formatter -> t -> unit
(** Render in the legacy text format of the diagnostic's code family —
    byte-identical to the producer's own printer (parity-tested). *)

val to_text : t -> string

val pos_to_json : pos -> Pg_json.Json.t
val span_to_json : span -> Pg_json.Json.t

val to_json : t -> Pg_json.Json.t
(** [{"code", "severity", "span", "subject", "message", "related"}];
    absent span/subject render as [null]. *)

(** The uniform CLI exit-code policy, computed from diagnostics. *)
module Exit : sig
  type cls =
    | Clean  (** exit 0 *)
    | Findings  (** exit 1 *)
    | Input_error  (** exit 2 *)
    | Budget  (** exit 3 *)

  val code : cls -> int
  val status : cls -> string

  val classify : t list -> cls
  (** Precedence: any {!Registry.Input}-class code yields [Input_error];
      else any {!Registry.Budget}-class code yields [Budget]; else any
      error-severity diagnostic yields [Findings]; else [Clean]. *)
end

val envelope :
  tool:string ->
  command:string ->
  ?summary:(string * Pg_json.Json.t) list ->
  ?cls:Exit.cls ->
  t list ->
  Pg_json.Json.t
(** The machine-readable report document: tool, command, status, exit
    code, severity counts, a command-specific summary object, and the
    diagnostics array.  [cls] defaults to [Exit.classify]. *)

val write_envelope :
  Pg_json.Json.writer ->
  tool:string ->
  command:string ->
  ?summary:(string * Pg_json.Json.t) list ->
  ?cls:Exit.cls ->
  t list ->
  unit
(** {!envelope} written through a streaming writer, one diagnostic at a
    time: the bytes of [Json.to_string (envelope ...)] in the writer's
    mode, without the tree of the diagnostics array. *)
