"""Semantic analysis core: templates, matcher, analyzer.

The paper's primary contribution — template-based behavioural matching with
junk tolerance, register renaming, constant obfuscation resolution, and
out-of-order code handling.
"""

from .._lazy import lazy_exports

__all__ = [
    "Bindings", "ConstBytesWrite", "IndirectCall", "LoadFrom", "LoopBack",
    "MatchContext", "MemRmw", "Node", "PointerStep", "PushValue",
    "RegCompute", "RegFromEsp", "StoreTo", "Syscall", "Template",
    "TemplateMatch",
    "MatchEngine", "PreparedTrace", "prepare_trace",
    "admmutate_alt_decoder", "all_templates", "codered_ii_vector",
    "decoder_templates", "generic_decrypt_loop", "linux_shell_spawn",
    "paper_templates", "port_bind_shell", "xor_decrypt_loop",
    "xor_only_templates",
    "AnalysisResult", "SemanticAnalyzer",
    "EmulationVerifier", "Verification",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    "template": (
        "Bindings", "ConstBytesWrite", "IndirectCall", "LoadFrom", "LoopBack",
        "MatchContext", "MemRmw", "Node", "PointerStep", "PushValue",
        "RegCompute", "RegFromEsp", "StoreTo", "Syscall", "Template",
        "TemplateMatch"),
    "matcher": ("MatchEngine", "PreparedTrace", "prepare_trace"),
    "library": (
        "admmutate_alt_decoder", "all_templates", "codered_ii_vector",
        "decoder_templates", "generic_decrypt_loop", "linux_shell_spawn",
        "paper_templates", "port_bind_shell", "xor_decrypt_loop",
        "xor_only_templates"),
    "analyzer": ("AnalysisResult", "SemanticAnalyzer"),
    "emuverify": ("EmulationVerifier", "Verification"),
})
