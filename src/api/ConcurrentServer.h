//===- api/ConcurrentServer.h - Old server names ----------------*- C++ -*-===//
//
// Part of the hiptntpp project: a reproduction of "Termination and
// Non-Termination Specification Inference" (PLDI 2015).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The names the multi-client front end had before it became the one
/// AnalysisServer (api/AnalysisServer.h), and the runProgramRequest
/// signature from before the global solver tier was deleted. Kept only
/// for perfbench/driver.cpp, which still spells them; new code uses
/// the AnalysisServer names.
///
//===----------------------------------------------------------------------===//

#ifndef TNT_API_CONCURRENTSERVER_H
#define TNT_API_CONCURRENTSERVER_H

#include "api/AnalysisServer.h"

namespace tnt {

using ConcurrentServerOptions = ServerOptions;
using ConcurrentAnalysisServer = AnalysisServer;

/// Inert tier argument: ignored (see solver/GlobalCache.h). Only
/// perfbench/driver.cpp may call this overload.
inline RequestOutcome runProgramRequest(const std::string &Source,
                                        const std::string &Entry,
                                        const AnalyzerConfig &Config,
                                        const GlobalSolverCache *) {
  return runProgramRequest(Source, Entry, Config);
}

} // namespace tnt

#endif // TNT_API_CONCURRENTSERVER_H
