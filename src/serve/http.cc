#include "serve/http.hh"

#include <cctype>
#include <sstream>

#include "util/numbers.hh"

namespace zatel::serve
{

namespace
{

const std::string kEmpty;

std::string
toLower(const std::string &text)
{
    std::string out = text;
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string
trimmedView(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end &&
           std::isspace(static_cast<unsigned char>(text[begin])))
        ++begin;
    while (end > begin &&
           std::isspace(static_cast<unsigned char>(text[end - 1])))
        --end;
    return text.substr(begin, end - begin);
}

/** RFC 9110 token characters (header names, methods). */
bool
isTokenChar(char c)
{
    if (std::isalnum(static_cast<unsigned char>(c)))
        return true;
    switch (c) {
    case '!':
    case '#':
    case '$':
    case '%':
    case '&':
    case '\'':
    case '*':
    case '+':
    case '-':
    case '.':
    case '^':
    case '_':
    case '`':
    case '|':
    case '~':
        return true;
    default:
        return false;
    }
}

bool
isToken(const std::string &text)
{
    if (text.empty())
        return false;
    for (char c : text) {
        if (!isTokenChar(c))
            return false;
    }
    return true;
}

} // namespace

const std::string &
HttpRequest::header(const std::string &lowerName) const
{
    auto it = headers.find(lowerName);
    return it == headers.end() ? kEmpty : it->second;
}

HttpParser::HttpParser(HttpLimits limits) : limits_(limits)
{
}

HttpParser::Status
HttpParser::fail(int status, std::string reason)
{
    status_ = Status::Failed;
    errorStatus_ = status;
    errorReason_ = std::move(reason);
    buffer_.clear();
    return status_;
}

HttpParser::Status
HttpParser::parseHead(size_t headerEnd)
{
    // Request line: METHOD SP target SP HTTP/x.y
    size_t lineEnd = buffer_.find("\r\n");
    if (lineEnd == std::string::npos || lineEnd > headerEnd)
        lineEnd = headerEnd;
    const std::string line = buffer_.substr(0, lineEnd);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = sp1 == std::string::npos
                           ? std::string::npos
                           : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos)
        return fail(400, "malformed request line");
    request_.method = line.substr(0, sp1);
    request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    request_.version = line.substr(sp2 + 1);
    if (!isToken(request_.method))
        return fail(400, "malformed method");
    if (request_.target.empty() || request_.target[0] != '/')
        return fail(400, "malformed request target");
    if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0")
        return fail(505, "unsupported HTTP version");

    // Header fields.
    size_t pos = lineEnd + 2;
    while (pos < headerEnd) {
        size_t eol = buffer_.find("\r\n", pos);
        if (eol == std::string::npos || eol > headerEnd)
            eol = headerEnd;
        const std::string field = buffer_.substr(pos, eol - pos);
        pos = eol + 2;
        if (field.empty())
            continue;
        const size_t colon = field.find(':');
        if (colon == std::string::npos)
            return fail(400, "malformed header field");
        const std::string name = field.substr(0, colon);
        if (!isToken(name))
            return fail(400, "malformed header name");
        request_.headers[toLower(name)] =
            trimmedView(field.substr(colon + 1));
    }

    if (!request_.header("transfer-encoding").empty())
        return fail(501, "Transfer-Encoding is not supported");

    const std::string &length = request_.header("content-length");
    if (!length.empty()) {
        try {
            contentLength_ = parseUint(length, "Content-Length");
        } catch (const NumberError &) {
            return fail(400, "malformed Content-Length");
        }
        if (contentLength_ > limits_.maxBodyBytes)
            return fail(413, "request body too large");
    }
    return Status::NeedMore;
}

HttpParser::Status
HttpParser::feed(const char *data, size_t size)
{
    if (status_ != Status::NeedMore)
        return status_;
    buffer_.append(data, size);

    if (!headDone_) {
        const size_t headerEnd = buffer_.find("\r\n\r\n");
        if (headerEnd == std::string::npos) {
            if (buffer_.size() > limits_.maxHeaderBytes)
                return fail(431, "request headers too large");
            return Status::NeedMore;
        }
        if (headerEnd + 4 > limits_.maxHeaderBytes)
            return fail(431, "request headers too large");
        if (parseHead(headerEnd) == Status::Failed)
            return status_;
        headDone_ = true;
        bodyStart_ = headerEnd + 4;
    }

    if (buffer_.size() - bodyStart_ >= contentLength_) {
        // Bytes past Content-Length (pipelined requests) are ignored:
        // the daemon answers one request per connection and closes.
        request_.body = buffer_.substr(bodyStart_, contentLength_);
        buffer_.clear();
        status_ = Status::Complete;
    }
    return status_;
}

const char *
httpStatusReason(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 408:
        return "Request Timeout";
    case 413:
        return "Content Too Large";
    case 431:
        return "Request Header Fields Too Large";
    case 500:
        return "Internal Server Error";
    case 501:
        return "Not Implemented";
    case 503:
        return "Service Unavailable";
    case 504:
        return "Gateway Timeout";
    case 505:
        return "HTTP Version Not Supported";
    default:
        return "Unknown";
    }
}

std::string
httpResponse(int status, const std::string &contentType,
             const std::string &body,
             const std::vector<std::pair<std::string, std::string>>
                 &extraHeaders)
{
    std::ostringstream oss;
    oss << "HTTP/1.1 " << status << ' ' << httpStatusReason(status)
        << "\r\n"
        << "Content-Type: " << contentType << "\r\n"
        << "Content-Length: " << body.size() << "\r\n"
        << "Connection: close\r\n";
    for (const auto &header : extraHeaders)
        oss << header.first << ": " << header.second << "\r\n";
    oss << "\r\n" << body;
    return oss.str();
}

} // namespace zatel::serve
