(** Length-prefixed JSON framing and a Unix-domain-socket server loop — the
    transport under [cosynth serve].

    The batch bench pays the whole warm-up bill (domain spawn, memo fill,
    verifier state) on every invocation; a persistent daemon pays it once
    and amortizes it across every job a client submits. This module is
    deliberately policy-free: it knows how to frame JSON values over a
    local socket, how to run one handler thread per client, and how to
    wind the loop down (drain or stop) without stranding a peer — what a
    request {e means} (synthesis, admission, deadlines) is the caller's
    handler, which keeps the exec library independent of the driver; the
    hardened policy layer is {!Cosynth.Service}.

    Framing: each message is a 4-byte big-endian byte length followed by
    exactly that many bytes of compact JSON. Length-prefixing (rather than
    newline-delimiting) lets request and response bodies contain anything —
    embedded newlines in config text included. A frame holds at most 16 MiB;
    a peer announcing more is treated as malformed and its connection
    dropped. *)

val write_frame : Unix.file_descr -> Netcore.Json.t -> unit
(** Serialize compactly and write header + payload (handles short
    writes). *)

(** What the handler wants done with its reply. *)
type reply =
  | Reply of Netcore.Json.t  (** Send and keep serving. *)
  | Drain of Netcore.Json.t
      (** Send, then begin a graceful drain: stop accepting, answer
          further requests with the reject frame for the grace window,
          then close every connection (the [drain] job). *)
  | Final of Netcore.Json.t
      (** Send, then shut the whole server down (the [shutdown] job). *)

val serve :
  socket_path:string ->
  handle:(client:int -> Netcore.Json.t -> reply) ->
  ?backlog:int ->
  ?io_timeout_ms:int ->
  ?drain_grace_ms:int ->
  ?drain_reject:(Netcore.Json.t -> Netcore.Json.t) ->
  ?handle_signals:bool ->
  ?on_drain:(unit -> unit) ->
  ?on_ready:(unit -> unit) ->
  ?on_reload:(unit -> unit) ->
  unit ->
  bool
(** Bind [socket_path] (unlinking any stale socket file first), listen, and
    accept until a handler returns [Final] or a drain begins. Every
    accepted connection gets its own thread; requests {e within} one
    connection are handled sequentially in arrival order, while distinct
    clients proceed concurrently — so the handler must be thread-safe (the
    warm state it shares, [Exec.Memo] and [Exec.Pool], already is). A
    handler exception is answered with an [{"ok": false, "error": ...}]
    frame rather than killing the connection; a framing error, or a reply
    to a peer that already closed its end, drops only that client (SIGPIPE
    is ignored for the server's lifetime and restored before returning).

    Robustness knobs:
    {ul
    {- [io_timeout_ms] (default 30 000; [0] disables) arms [SO_RCVTIMEO] /
       [SO_SNDTIMEO] on every accepted socket, so a peer stalling mid-frame
       or refusing to drain our writes drops its own connection instead of
       pinning a handler thread.}
    {- A drain (a [Drain] reply, or SIGTERM/SIGINT with
       [handle_signals:true]) stops accepting at once; requests arriving on
       live connections during the next [drain_grace_ms] (default 1 000)
       are answered with [drain_reject] applied to the request (default
       [{"ok": false, "error": "server draining", "draining": true}]), in-flight handlers finish and their
       replies are flushed, and then every connection is closed.
       [on_drain] runs once when the drain begins.}
    {- [handle_signals] installs SIGTERM/SIGINT handlers for the server's
       lifetime (restored before returning); each signal triggers the same
       drain path, so a supervisor's TERM is indistinguishable from a
       [drain] job.}
    {- [on_reload] installs a SIGHUP handler for the server's lifetime
       (restored before returning). The signal handler only flips an atomic
       flag; the callback runs on the accept loop (the signal's EINTR wakes
       it) or on a client thread's next 50 ms select slice — never inside
       the signal handler, so it may freely take locks (e.g.
       [Resilience.Admission.set_caps]). It must therefore be thread-safe.
       Exceptions it raises are swallowed: a bad reload must not kill the
       daemon.}}

    [on_ready] runs once the socket is listening (the CLI prints its
    "listening" line there; tests use it to know when to connect). Returns
    after every client thread has been joined and the socket file is
    unlinked; the result is [true] when the server wound down via a drain
    and [false] on the [Final] (shutdown) path. *)

(** {2 Client side} *)

exception Server_overloaded of { retry_after_ms : int }
(** Raised by {!request} on a shed frame ([{"shed": true, ...}]): the
    daemon refused the job at admission. Distinct from [Failure] so
    clients and tests can catch it and retry deliberately after
    [retry_after_ms]. *)

val connect :
  ?total_budget_ms:int -> socket_path:string -> unit -> Unix.file_descr
(** Connect to the daemon, retrying with exponential backoff (1 ms
    doubling to a 200 ms cap) while the socket file does not exist yet or
    refuses connections — the daemon may still be binding, or a supervisor
    may be respawning it. [total_budget_ms] (default 1 000) bounds the
    whole attempt in wall-clock time.
    @raise Failure when the budget is exhausted. *)

val request : Unix.file_descr -> Netcore.Json.t -> Netcore.Json.t
(** One round trip: {!write_frame}, then read one reply frame.
    @raise Server_overloaded on a shed frame.
    @raise Failure if the server closed the stream instead of replying. *)

val request_retrying :
  ?on_retry:(unit -> unit) ->
  retries:int ->
  Unix.file_descr ->
  Netcore.Json.t ->
  Netcore.Json.t
(** {!request}, treating a shed frame as flow control: sleep its
    [retry_after_ms] hint and resend, up to [retries] times, calling
    [on_retry] before each resend.
    @raise Server_overloaded on the shed frame after the last retry. *)

val with_connection :
  ?total_budget_ms:int -> socket_path:string -> (Unix.file_descr -> 'a) -> 'a
(** {!connect}, run, close (also on exception). *)
