"""Error hierarchy. Every error carries a short machine-parsable code used by the CLI."""


class StreamAsrError(Exception):
    code = "internal"


class ShapeError(StreamAsrError):
    code = "shape"


class NumericsError(StreamAsrError):
    code = "numerics"


class ConfigError(StreamAsrError):
    code = "config"


class FormatError(StreamAsrError):
    code = "format"


class ChunkingError(StreamAsrError):
    code = "chunking"


class SessionError(StreamAsrError):
    code = "session"


class StateError(StreamAsrError):
    code = "state"


class ArgumentError(StreamAsrError):
    code = "argument"


class FeasibilityError(StreamAsrError):
    code = "feasibility"


class InputFileError(StreamAsrError):
    code = "file"
