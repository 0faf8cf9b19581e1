#include "catalogue.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hh"

namespace perfbench
{

const std::vector<WorkloadDef> &
workloads()
{
    static const std::vector<WorkloadDef> defs = {
        {"predict-park",
         "one caller, fresh predictor per call: PARK/soc 160x160 renders "
         "every time, so front-end (render, quantize) changes show here"},
        {"campaign-sweep",
         "24-job fraction sweep on the shared scheduler: heatmaps are "
         "shared, so gpu.run dominates and front-end changes should not "
         "show"},
        {"serve-mixed",
         "2 closed-loop HTTP clients, ~1 in 8 requests cold: HTTP, "
         "queueing, coalescing and the reply cache are the work"},
    };
    return defs;
}

Catalogue
loadCatalogue(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    const zatel::obs::JsonValue root = zatel::obs::parseJson(text.str());

    auto list = [&root, &path](const char *key) {
        const zatel::obs::JsonValue &value = root.at(key);
        if (!value.isArray() || value.arrayValue.empty())
            throw std::runtime_error(path + ": \"" + key +
                                     "\" is not a non-empty list");
        return value.arrayValue;
    };
    Catalogue catalogue;
    for (const zatel::obs::JsonValue &w : list("workloads"))
        catalogue.workloads.push_back(w.at("name").stringValue);
    for (const zatel::obs::JsonValue &m : list("end_to_end"))
        catalogue.endToEnd.push_back(
            {m.at("name").stringValue, m.at("unit").stringValue});
    for (const zatel::obs::JsonValue &m : list("per_layer"))
        catalogue.perLayer.push_back(
            {m.at("name").stringValue, m.at("unit").stringValue});
    return catalogue;
}

} // namespace perfbench
