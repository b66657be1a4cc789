"""Error hierarchy shared across the toolkit.

Every error carries a short machine-parsable ``code`` that the CLI prints as
``error[<code>]: <message>`` on the diagnostic stream.
"""


class BookQaError(Exception):
    code = "error"


class ConfigError(BookQaError):
    code = "config"


class CorpusError(BookQaError):
    code = "corpus"


class FormatError(BookQaError):
    """A malformed artifact or input file (bad JSON, missing field)."""

    code = "format"


class EvalError(BookQaError):
    code = "eval"


class ProtocolError(BookQaError):
    """External scorer violated the rerank wire protocol."""

    code = "protocol"


class WorkerError(BookQaError):
    """A worker process died, or raised something other than a BookQaError."""

    code = "worker"
