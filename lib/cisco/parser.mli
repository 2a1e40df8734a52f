(** Tolerant parser for the Cisco IOS dialect.

    The parser plays the role of Batfish's IOS front end: it accepts the
    routing-and-forwarding subset used by the paper, recovers from bad lines
    by skipping them, and reports every problem as a located {!Netcore.Diag.t}
    (the "parse warnings identifying relevant lines" fed to the humanizer).
    Known GPT-4 mistakes get targeted messages: CLI keywords, a literal
    community in [match community], neighbor/network statements outside the
    [router bgp] block, regexes in standard community lists. *)

val tokens : string -> string list
(** The words of one configuration line, in one scan: the line is trimmed
    of the whitespace [String.trim] removes, then split on spaces, empty
    words dropped. A tab inside the line stays part of its word. *)

val parse : string -> Policy.Config_ir.t * Netcore.Diag.t list
(** Never raises; an empty or hopeless input yields an empty config plus
    diagnostics. *)
